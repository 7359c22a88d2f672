//! Running one workload from set-up to metrics.
//!
//! A run is: set up (generate and warm up, several times, for a steady
//! `setup_s`), measure reps until the [`Budget`] is spent with tracing
//! off, and — in a traced run only — measure again with spans on, then
//! run the layer probes. End-to-end metrics always come from the
//! untraced reps. A simulator run also reads the host yardstick between
//! everything it times, and reports its times at the reference host speed.

use crate::des::{self, Rep};
use crate::gen::{self, Scale, Workload};
use crate::live::{self, Bench, Round, Sizes};
use crate::probe::{self, Probes};
use crate::report::{Measured, Outcome};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use std::time::{Duration, Instant};

/// How much to measure.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// A fixed number of reps: what `run` and `trace` use, so that two
    /// result files hold the same amount of work.
    Reps(usize),
    /// Whole reps until this many seconds have passed: what the driver
    /// of `BENCHMARK.json` asks for.
    Seconds(f64),
}

impl Budget {
    /// The fixed rep count of `w` at `scale`.
    pub fn fixed(w: Workload, scale: Scale) -> Budget {
        Budget::Reps(match (scale, w) {
            (Scale::Full, Workload::Fence8k) => 6,
            (Scale::Full, Workload::CommitSharded2k) => 30,
            (Scale::Full, Workload::ReadFanout1k) => 20,
            (Scale::Full, Workload::LivePing) => 8,
            (Scale::Smoke, Workload::LivePing) => 1,
            (Scale::Smoke, _) => 2,
        })
    }

    /// Whether another rep fits after `done` reps since `start`; at
    /// least `least` reps always do.
    fn allows(self, done: usize, least: usize, start: Instant) -> bool {
        match self {
            Budget::Reps(n) => done < n.max(least),
            Budget::Seconds(s) => done < least || start.elapsed().as_secs_f64() < s,
        }
    }
}

/// Set-ups per run: several, so that `setup_s` is a median. A traced run
/// does not report `setup_s` and sets up once.
fn setups(w: Workload, scale: Scale, traced: bool) -> usize {
    match (scale, traced, w) {
        (Scale::Smoke, _, _) | (_, true, _) => 1,
        (_, _, Workload::LivePing) => 5,
        _ => 3,
    }
}

/// Runs `rep` until `budget` is spent and returns `(untraced, traced)`
/// reps. An untraced run records no spans at all; a traced run gives
/// every other rep the recording `tracer`, so that both kinds sample the
/// same stretch of time and their difference is the tracing overhead,
/// not drift.
fn measure<T, E>(
    budget: Budget,
    traced: bool,
    tracer: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer) -> Result<T, E>,
) -> Result<(Vec<T>, Vec<T>), E> {
    let mut off = Tracer::new(false);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let least = if traced { 2 } else { 1 };
    let start = Instant::now();
    while budget.allows(plain.len() + spanned.len(), least, start) {
        if traced && plain.len() > spanned.len() {
            spanned.push(rep(tracer)?);
        } else {
            plain.push(rep(&mut off)?);
        }
    }
    Ok((plain, spanned))
}

/// What recording spans costs a rep, percent of an untraced rep: the
/// median difference between each traced rep's `run` span and the
/// untraced rep just before it, over the median untraced rep.
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let paired: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t - u).collect();
    100.0 * stats::median(&paired) / stats::median(untraced)
}

/// Turns probe results into metrics.
fn layer_metrics(probes: Probes<'_>, out: &mut Vec<Measured>) {
    for (layer, op, value) in probes.finish() {
        out.push(Measured::exact(format!("{layer}.{op}"), value));
    }
}

/// Runs a simulator workload. The yardstick is read between everything
/// that is timed, and the times are reported at the reference host speed.
fn run_des(w: Workload, seed: u64, scale: Scale, budget: Budget, traced: bool) -> Outcome {
    let mut tracer = Tracer::new(traced);
    let whole = tracer.enter("workload");
    let mut yardstick = Yardstick::start(scale);

    // Set-up: generate the scripts and run one warm-up rep, which also
    // yields the record every later rep must reproduce.
    let mut raw_setup_s = Vec::new();
    let mut warmups: Vec<Rep> = Vec::new();
    let mut plan = None;
    for _ in 0..setups(w, scale, traced) {
        let start = Instant::now();
        let span = tracer.enter("generate");
        let generated = gen::des_plan(w, seed, scale);
        tracer.exit(span, generated.total_ops());
        warmups.push(des::run_rep(&generated, &mut tracer));
        raw_setup_s.push(start.elapsed().as_secs_f64());
        yardstick.read();
        plan = Some(generated);
    }
    let plan = plan.expect("at least one set-up");
    let ops = plan.total_ops();
    let reference = warmups[0].record;

    let (mut timed, mut traced_reps) = measure(budget, traced, &mut tracer, |t| {
        let rep = des::run_rep(&plan, t);
        yardstick.read();
        Ok::<_, ()>(rep)
    })
    .expect("a rep cannot fail, only its ops");
    // The yardstick's memory has been resident under every peak.
    let peak_rss_mb = sys::peak_rss_mb() - yardstick.resident_mb();
    des::cross_check(reference, &mut warmups, ops);
    des::cross_check(reference, &mut timed, ops);
    des::cross_check(reference, &mut traced_reps, ops);

    let all = || warmups.iter().chain(&timed).chain(&traced_reps);
    let attempted = ops * all().count() as u64;
    let failed: u64 = all().map(|r| r.failed).sum();

    // Noise only ever adds to a rep, so a rep time is the lower quartile
    // of the reps, scaled by what the yardstick says of the whole run.
    let host = yardstick.factor();
    let at_reference = |raw: Vec<f64>| raw.into_iter().map(|s| s * host).collect::<Vec<f64>>();
    let raw_walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let walls = at_reference(raw_walls.clone());
    let wall = Measured::lower_quartile("wall_s", &walls);
    let clients = plan.scripts.len() as f64;
    let per_op_us: Vec<f64> = walls.iter().map(|w| w * 1e6 * clients / ops as f64).collect();
    let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
    let readings_ms: Vec<f64> = yardstick.readings_s().iter().map(|s| s * 1e3).collect();
    let mut metrics = vec![
        Measured::median("setup_s", &at_reference(raw_setup_s)),
        // The simulator has no round trip or request rate of its own;
        // these two restate wall_s per simulated client op.
        Measured::of("rtt_p50_us", wall.value * 1e6 * clients / ops as f64, &per_op_us).derived(),
        Measured::of("rpc_per_s", ops as f64 / wall.value, &rates).derived(),
        wall,
        Measured::lower_quartile("host.yardstick_ms", &readings_ms),
        Measured::lower_quartile("host.wall_raw_s", &raw_walls),
    ];
    if let Some(rec) = reference {
        for (name, ns) in [
            ("vt_producer_ms", rec.producer_ns),
            ("vt_sync_ms", rec.sync_ns),
            ("vt_consumer_ms", rec.consumer_ns),
            ("vt_makespan_ms", rec.makespan_ns),
        ] {
            metrics.push(Measured::exact(name, ns as f64 / 1e6));
        }
    }
    metrics.push(Measured::exact("fail_ratio", failed as f64 / attempted as f64));

    if traced {
        if let Some(rec) = reference {
            let engine = at_reference(timed.iter().map(|r| r.engine_wall_s).collect());
            let engine = Measured::lower_quartile("sim.engine_wall_s", &engine);
            let overhead = at_reference(timed.iter().map(|r| r.wall_s - r.engine_wall_s).collect());
            metrics.extend([
                Measured::exact("sim.events", rec.events as f64),
                Measured::exact("sim.bytes_on_wire", rec.bytes as f64),
                Measured::exact("sim.events_per_op", rec.events as f64 / ops as f64),
                Measured::exact("sim.events_per_s", rec.events as f64 / engine.value),
                engine,
                Measured::lower_quartile("sim.session_overhead_s", &overhead),
            ]);
        }
        // Traced and untraced reps alternate, so the host cancels.
        let spans: Vec<f64> = traced_reps.iter().map(|r| r.wall_s).collect();
        metrics.push(Measured::exact("trace_overhead_pct", overhead_pct(&spans, &raw_walls)));
        let mut probes = Probes::new(&mut tracer, scale);
        probe::des_probes(&mut probes, &plan);
        layer_metrics(probes, &mut metrics);
    }
    metrics.push(Measured::exact("peak_rss_mb", peak_rss_mb));
    tracer.exit(whole, attempted);
    Outcome { workload: w, attempted, failed, metrics, spans: tracer.to_value() }
}

/// Per-round percentile `p` of the quiet latencies, for the spread.
fn per_round(rounds: &[Round], p: f64) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| !r.quiet.latencies_us.is_empty())
        .map(|r| {
            let mut sorted = r.quiet.latencies_us.clone();
            stats::sort(&mut sorted);
            stats::percentile(&sorted, p)
        })
        .collect()
}

/// Every latency of `phase` over `rounds`, ascending.
fn pooled(rounds: &[Round], phase: impl Fn(&Round) -> &live::Phase) -> Vec<f64> {
    let mut all: Vec<f64> =
        rounds.iter().flat_map(|r| phase(r).latencies_us.iter().copied()).collect();
    stats::sort(&mut all);
    all
}

/// The rounds of `live_ping` on a session that is up, then — traced —
/// the idle window and the layer probes. Returns `(attempted, failed,
/// metrics)`; the caller owns set-up and shutdown.
fn live_rounds(
    bench: &mut Bench,
    payload: &flux_value::Value,
    scale: Scale,
    budget: Budget,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<(u64, u64, Vec<Measured>), String> {
    let io = |e: std::io::Error| format!("live_ping: {e}");
    let (timed, traced_rounds) = measure(budget, traced, tracer, |t| bench.round(t)).map_err(io)?;
    let all = || timed.iter().chain(&traced_rounds);
    let attempted: u64 = all().map(|r| r.quiet.attempted + r.busy.attempted).sum();
    let failed: u64 = all().map(|r| r.quiet.failed + r.busy.failed).sum();

    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> =
        timed.iter().map(|r| r.busy.latencies_us.len() as f64 / r.busy.wall_s).collect();
    let quiet = pooled(&timed, |r| &r.quiet);
    if quiet.is_empty() {
        return Err("live_ping: no quiet ping was answered".into());
    }
    let rtt_p50 = stats::percentile(&quiet, 50.0);
    let mut metrics = vec![
        Measured::median("wall_s", &walls),
        Measured::of("rtt_p50_us", rtt_p50, &per_round(&timed, 50.0)),
        Measured::of("rtt_p99_us", stats::percentile(&quiet, 99.0), &per_round(&timed, 99.0)),
        Measured::median("rpc_per_s", &rates),
    ];
    if !traced {
        return Ok((attempted, failed, metrics));
    }

    let idle_window = Duration::from_millis(if scale == Scale::Full { 2000 } else { 200 });
    let span = tracer.enter("idle");
    let (idle_cpu_pct, idle_wakeups_per_s) = bench.idle(idle_window);
    tracer.exit(span, 1);

    let busy = pooled(&timed, |r| &r.busy);
    let busy_pings = busy.len().max(1) as f64;
    let busy_cpu_ns: u64 = timed.iter().map(|r| r.busy.cpu_ns).sum();
    let busy_bytes: u64 = timed.iter().map(|r| r.busy.bytes).sum();
    let quiet_bytes: u64 = timed.iter().map(|r| r.quiet.bytes).sum();

    let mut probes = Probes::new(tracer, scale);
    probe::value_codec(&mut probes, payload);
    let request_len = probe::wire_codec(&mut probes, payload);
    probe::broker_paths(&mut probes, payload, 1, Default::default());
    let reply_len = (quiet_bytes as usize / quiet.len()).saturating_sub(request_len).max(1);
    let floor_us = live::rtt_floor_us(request_len, reply_len, 2000).map_err(io)?;
    // Client and broker each encode one message and decode one.
    let (codec_ns, broker_ns) = probe::codec_and_broker_ns(&probes);
    let waited_us = rtt_p50 - floor_us - broker_ns / 1e3 - 2.0 * codec_ns / 1e3;
    for (op, value) in [
        ("rtt_floor_us", floor_us),
        ("wait_share", waited_us / rtt_p50),
        ("busy_p99_us", if busy.is_empty() { 0.0 } else { stats::percentile(&busy, 99.0) }),
        ("busy_cpu_us_per_rpc", busy_cpu_ns as f64 / 1e3 / busy_pings),
        ("bytes_per_rpc", busy_bytes as f64 / busy_pings),
        ("idle_cpu_pct", idle_cpu_pct),
        ("idle_wakeups_per_s", idle_wakeups_per_s),
    ] {
        probes.set("rt", op, value);
    }
    layer_metrics(probes, &mut metrics);
    let spans: Vec<f64> = traced_rounds.iter().map(|r| r.wall_s).collect();
    metrics.push(Measured::exact("trace_overhead_pct", overhead_pct(&spans, &walls)));
    Ok((attempted, failed, metrics))
}

/// Runs `live_ping`: sets the session up (several times, for a steady
/// `setup_s`), measures on the last one, and shuts it down whatever
/// happened.
fn run_live(
    seed: u64,
    scale: Scale,
    budget: Budget,
    traced: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    if sys::nproc() < 2 {
        return Err("live_ping needs two hardware threads: one for the reactor, one for \
                    the driver"
            .into());
    }
    let w = Workload::LivePing;
    let sizes = match scale {
        Scale::Full => Sizes { quiet: 1000, busy_per_conn: 25_000, warmup: 200 },
        Scale::Smoke => Sizes { quiet: 100, busy_per_conn: 100, warmup: 10 },
    };
    let mut tracer = Tracer::new(traced);
    let whole = tracer.enter("workload");
    let span = tracer.enter("generate");
    let payload = gen::ping_payload(seed);
    tracer.exit(span, 1);

    // Set-up: session start, three connects and the warm-up pings.
    let (mut setup_s, mut start_ms, mut connect_us, mut shutdown_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bench: Option<Bench> = None;
    for i in 0..setups(w, scale, traced) {
        if let Some(previous) = bench.take() {
            shutdown_ms.push(previous.shutdown() * 1e3);
        }
        let start = if i == 0 { process_start } else { Instant::now() };
        let (started, cost) =
            Bench::start(&payload, sizes).map_err(|e| format!("live_ping: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        start_ms.push(cost.session_start_s * 1e3);
        connect_us.push(cost.connect_s * 1e6);
        bench = Some(started);
    }
    let mut bench = bench.expect("at least one set-up");

    let measured = live_rounds(&mut bench, &payload, scale, budget, traced, &mut tracer);
    shutdown_ms.push(bench.shutdown() * 1e3);
    let (attempted, failed, mut metrics) = measured?;
    let attempted = attempted + (sizes.warmup * setup_s.len()) as u64;
    metrics.extend([
        Measured::median("setup_s", &setup_s),
        Measured::exact("fail_ratio", failed as f64 / attempted as f64),
        Measured::exact("peak_rss_mb", sys::peak_rss_mb()),
    ]);
    if traced {
        metrics.extend([
            Measured::median("rt.session_start_ms", &start_ms),
            Measured::median("rt.connect_us", &connect_us),
            Measured::median("rt.shutdown_ms", &shutdown_ms),
        ]);
    }
    tracer.exit(whole, attempted);
    Ok(Outcome { workload: w, attempted, failed, metrics, spans: tracer.to_value() })
}

/// Runs workload `w` once: set-up, reps within `budget`, and the traced
/// half and layer probes if `traced`. `process_start` is when the process
/// began: `live_ping`, whose set-up is short enough for it to matter,
/// times its first set-up from there.
///
/// # Errors
/// Fails if the workload cannot run at all (one hardware thread, a
/// refused socket). Failed operations are not an error: they are counted
/// in the outcome.
pub fn run_workload(
    w: Workload,
    seed: u64,
    scale: Scale,
    budget: Budget,
    traced: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    match w {
        Workload::LivePing => run_live(seed, scale, budget, traced, process_start),
        _ => Ok(run_des(w, seed, scale, budget, traced)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{spec, Home, SPECS};

    fn smoke(w: Workload, traced: bool) -> Outcome {
        run_workload(w, 11, Scale::Smoke, Budget::fixed(w, Scale::Smoke), traced, Instant::now())
            .unwrap()
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_no_failure() {
        for w in Workload::ALL {
            let out = smoke(w, false);
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.attempted > 0);
            assert_eq!(out.metric("fail_ratio").unwrap().value, 0.0);
            out.driver_line(false).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            for m in &out.metrics {
                assert!(spec(&m.name).is_some(), "{} is not in SPECS", m.name);
            }
            assert_eq!(out.spans.as_array().unwrap().len(), 0, "untraced runs record nothing");
        }
    }

    #[test]
    fn a_traced_run_reports_the_layers_its_workload_exercises() {
        for w in Workload::ALL {
            let out = smoke(w, true);
            assert_eq!(out.failed, 0, "{}", w.name());
            out.driver_line(true).unwrap();
            let live = w == Workload::LivePing;
            for s in SPECS.iter().filter(|s| s.home == Home::PerLayer) {
                let exercised = match (s.layer, s.op) {
                    ("wire" | "rt", _) | (_, "rtt_p99_us") => live,
                    ("hash" | "kvs" | "sim" | "host", _) => !live,
                    (_, op) => !op.starts_with("vt_") || !live,
                };
                assert_eq!(
                    out.metric(&s.name()).is_some(),
                    exercised,
                    "{}: {}",
                    w.name(),
                    s.name()
                );
            }
            let names: Vec<&str> = out
                .spans
                .as_array()
                .unwrap()
                .iter()
                .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
                .collect();
            for expected in ["workload", "generate", "run"] {
                assert!(names.contains(&expected), "{}: no {expected} span", w.name());
            }
            assert!(names.iter().any(|n| n.starts_with("probe.")));
        }
    }

    #[test]
    fn same_seed_gives_identical_virtual_times() {
        let a = smoke(Workload::CommitSharded2k, false);
        let b = smoke(Workload::CommitSharded2k, false);
        for name in ["vt_producer_ms", "vt_sync_ms", "vt_consumer_ms", "vt_makespan_ms"] {
            assert_eq!(a.metric(name).unwrap().value, b.metric(name).unwrap().value, "{name}");
            assert!(a.metric(name).unwrap().value > 0.0);
        }
    }

    #[test]
    fn a_seconds_budget_always_measures_at_least_one_rep() {
        let start = Instant::now();
        assert!(Budget::Seconds(0.0).allows(0, 1, start));
        assert!(!Budget::Seconds(0.0).allows(1, 1, start));
        assert!(
            Budget::Seconds(0.0).allows(1, 2, start),
            "a traced run needs one rep of each kind"
        );
        assert!(Budget::Reps(2).allows(1, 1, start) && !Budget::Reps(2).allows(2, 1, start));
    }
}
