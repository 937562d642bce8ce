//! Wall-clock benchmark of the AQP engine.
//!
//! ```text
//! aqp-wallbench --workload <dashboard|tail_fallback|exact_scan> --seed <n>
//!               --seconds <s> --trace <0|1> [--rows <n>]
//! ```
//!
//! One closed-loop client drives an `AqpSession` over two generated 1M-row
//! tables. `--trace 0` measures the end-to-end metrics for `--seconds`;
//! `--trace 1` walks a fixed prefix of the same stream and times the
//! benchmark's own calls into each layer. Every answer is checked. A
//! human-readable report goes to stderr; the last line of stdout is the
//! JSON result. See README.md.

mod check;
mod layers;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use aqp_core::{AqpAnswer, AqpSession};
use aqp_obs::{Clock, Timestamp};

use check::Verifier;
use workload::{Query, QueryPlan, Scale, SetupTimes, Tables, Workload};

/// Length of the precomputed stream; a run wraps around if it gets
/// through all of it.
const STREAM_LEN: usize = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rows = 1_000_000usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--rows" => rows = value.parse::<usize>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if rows < 1_000 {
        return Err(format!("--rows {rows}: at least 1000 rows are needed"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        rows,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    Metric {
        name,
        value: value + 0.0,
        unit,
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Every wall-clock read goes through the engine's real clock.
pub fn now() -> Timestamp {
    Clock::Real.now()
}

pub fn since(start: Timestamp) -> Duration {
    now().duration_since(start)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Execute one query, turning an error or a panic into `Err`.
pub fn run_query(session: &AqpSession, sql: &str) -> (Result<AqpAnswer, String>, Duration) {
    let started = now();
    let result = catch_unwind(AssertUnwindSafe(|| session.execute(sql)));
    let wall = since(started);
    let result = match result {
        Ok(Ok(answer)) => Ok(answer),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string payload")
        )),
    };
    (result, wall)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// Everything set-up produces: the tables, the query plan, the session
/// the stream runs on, the checks, and the timing of each set-up.
pub struct Prepared {
    pub workload: Workload,
    pub scale: Scale,
    pub tables: Tables,
    pub plan: QueryPlan,
    pub session: AqpSession,
    pub verifier: Verifier,
    pub setups: Vec<SetupTimes>,
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let w = args.workload;
    let scale = Scale::new(args.rows);
    let tables = workload::generate_tables(scale.rows);
    let plan = workload::query_plan(w, args.seed, STREAM_LEN);
    let config = || workload::session_config(w.telemetry());
    let set_up =
        || workload::set_up(w, config(), &tables, scale).map_err(|e| format!("set-up: {e}"));
    // The first session is the reference run of the determinism check
    // and takes the cold caches; the stream runs on the second.
    let (reference, _) = set_up()?;
    let verifier = Verifier::new(&plan.pool, &reference)?;
    drop(reference);
    let (session, first) = set_up()?;
    let setups = if w.has_samples() {
        vec![first]
    } else {
        vec![
            workload::fastest_registration(config, &tables, w.setup_repeats())
                .map_err(|e| format!("set-up: {e}"))?,
        ]
    };
    Ok(Prepared {
        workload: w,
        scale,
        tables,
        plan,
        session,
        verifier,
        setups,
    })
}

impl Prepared {
    /// Set-ups still to time in this run.
    fn setups_left(&self) -> usize {
        if self.workload.has_samples() {
            self.workload.setup_repeats().saturating_sub(self.setups.len())
        } else {
            0
        }
    }

    /// Time one more set-up on a throwaway session.
    fn time_setup(&mut self) -> Result<(), String> {
        let config = workload::session_config(self.workload.telemetry());
        let (session, times) = workload::set_up(self.workload, config, &self.tables, self.scale)
            .map_err(|e| format!("set-up: {e}"))?;
        self.setups.push(times);
        drop(session);
        Ok(())
    }
}

/// Median wall time of the repeated set-ups, in seconds.
pub fn setup_seconds(setups: &[SetupTimes]) -> f64 {
    median(
        &setups
            .iter()
            .map(|t| t.total.as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// The closed-loop measured phase of `--trace 0`. The remaining set-ups
/// are spread over it, one after each equal slice of the query stream:
/// the machine's other load comes and goes over seconds, so set-ups
/// made back to back would all land in the same quiet or busy stretch.
fn end_to_end(p: &mut Prepared, seconds: u64) -> Result<Vec<Metric>, String> {
    let slices = p.setups_left().max(1) as u32;
    let slice = Duration::from_secs(seconds) / slices;
    let mut walls: Vec<f64> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut i = 0usize;
    for _ in 0..slices {
        let started = now();
        while since(started) < slice {
            let idx = p.plan.stream[i % p.plan.stream.len()];
            i += 1;
            let q: &Query = &p.plan.pool[idx];
            let (result, wall) = run_query(&p.session, &q.sql);
            if result.is_ok() {
                busy += wall;
                walls.push(ms(wall));
            }
            p.verifier.verify(&p.session, idx, q, &result);
        }
        if p.setups_left() > 0 {
            p.time_setup()?;
        }
    }
    let v = &p.verifier;
    eprintln!(
        "{}: {} queries ({} failed), p50 {:.2} ms, p90 {:.2} ms, {} of {} cells reliable",
        p.workload.name(),
        v.attempted,
        v.failed,
        median(&walls),
        quantile(&walls, 0.9),
        v.reliable,
        v.cells
    );
    if walls.len() < 100 {
        eprintln!(
            "warning: {} queries completed; latency_p90_ms wants at least 100",
            walls.len()
        );
    }
    Ok(vec![
        metric(
            "queries_per_s",
            walls.len() as f64 / busy.as_secs_f64().max(1e-9),
            "1/s",
        ),
        metric("latency_p50_ms", median(&walls), "ms"),
        metric("latency_p90_ms", quantile(&walls, 0.9), "ms"),
        metric("setup_s", setup_seconds(&p.setups), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "reliable_share",
            v.reliable as f64 / v.cells.max(1) as f64,
            "ratio",
        ),
        metric(
            "correct_share",
            (v.attempted - v.failed) as f64 / v.attempted.max(1) as f64,
            "ratio",
        ),
    ])
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let started = now();
    let mut p = prepare(args)?;
    eprintln!(
        "{} seed {}: {} rows per table, prepared in {:.2} s, pool of {} queries",
        p.workload.name(),
        args.seed,
        p.scale.rows,
        since(started).as_secs_f64(),
        p.plan.pool.len()
    );
    let metrics = if args.trace {
        while p.setups_left() > 0 {
            p.time_setup()?;
        }
        layers::traced(&mut p)?
    } else {
        end_to_end(&mut p, args.seconds)?
    };
    eprintln!("set-up {:.4} s", setup_seconds(&p.setups));
    for m in &metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    let v = &p.verifier;
    Ok(json_result(v.failed == 0, v.attempted, v.failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aqp-wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aqp-wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
