//! The traced run (`--trace 1`): per-layer timings from the benchmark's
//! own calls into each crate's public functions, kernel legs on fixed
//! inputs, the baseline table and the attribution report.
//!
//! Per-query layer metrics are means over the traced queries, where a
//! layer the query did not use counts as zero, so each one compares
//! directly with the mean `execute` wall time.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use aqp_core::{AnswerMode, AqpAnswer, AqpSession, SessionConfig};
use aqp_diagnostics::{run_diagnostic, DiagnosticConfig};
use aqp_exec::collect::collect;
use aqp_exec::engine::{execute_approx, ApproxOptions, MethodChoice};
use aqp_exec::theta::builtin_of;
use aqp_exec::{execute_exact, UdfRegistry};
use aqp_obs::{name, Clock, MetricsRegistry, ObsHandle};
use aqp_sql::logical::{DiagnosticWeights, ErrorMethod, ResampleSpec};
use aqp_sql::rewriter::{rewrite_for_error_estimation, ResamplePlacement};
use aqp_sql::{parse_query, plan_query};
use aqp_stats::bootstrap::bootstrap_ci;
use aqp_stats::closed_form::closed_form_ci;
use aqp_stats::dist::Poisson1;
use aqp_stats::error_estimator::{EstimationMethod, Theta};
use aqp_stats::estimator::{Aggregate, QueryEstimator, SampleContext};
use aqp_stats::rng::{rng_from_seed, SeedStream};
use aqp_storage::{SampleMeta, Table};
use aqp_workload::conviva_sessions_table;

use crate::check::leaf_table;
use crate::workload::{self, Workload, THREADS};
use crate::{median, metric, ms, now, run_query, setup_seconds, since, Metric, Prepared};

/// The traced pass stops early past this much wall time, so a run stays
/// well inside its time limit on a slow machine.
const TRACE_BUDGET: Duration = Duration::from_secs(110);

/// Pairs of engine span vs outside measurement that differ by more than
/// this share of the larger one are listed by the attribution report.
const ATTRIBUTION_BOUND: f64 = 0.25;

/// Engine stage spans read from each answer's trace.
const ENGINE_STAGES: [&str; 4] = [
    "scan_collect",
    "error_estimation",
    "diagnostics",
    "exact_execution",
];

/// Seed of the kernel legs' inputs, fixed so kernel figures compare
/// across runs and seeds.
const KERNEL_SEED: u64 = 0x5EED;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Layer timings of one traced query, in ms unless named otherwise.
#[derive(Debug, Clone, Default)]
struct Record {
    kind: &'static str,
    mode: Option<AnswerMode>,
    wall: f64,
    parse_us: f64,
    plan_us: f64,
    collect_sample: f64,
    collect_full: f64,
    full_rows: u64,
    approx: f64,
    exact: f64,
    bootstrap: f64,
    closed_form_us: f64,
    diagnostics: f64,
    engine: [f64; 4],
    rows_scanned: u64,
    cells: u64,
}

impl Record {
    fn core_self(&self) -> f64 {
        self.wall - (self.parse_us + self.plan_us) / 1e3 - self.approx - self.exact
    }
}

/// Total ms of the answer's trace spans named `stage`, at any depth.
fn stage_ms(answer: &AqpAnswer, stage: &str) -> f64 {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    answer
        .trace
        .spans
        .iter()
        .filter(|s| s.name == stage)
        .map(|s| ms(s.duration()))
        .sum::<f64>()
        + 0.0
}

/// The sample `execute` would choose: the stratified sample for a
/// single-column GROUP BY on its column, else the largest uniform one.
fn chosen_sample(
    session: &AqpSession,
    query: &aqp_sql::Query,
    table: &str,
) -> Result<Option<(SampleMeta, Table)>, String> {
    session
        .catalog()
        .with_samples(table, |set| {
            if query.group_by.len() == 1 && !query.is_nested() {
                if let Some(s) = set.stratified_on(&query.group_by[0]) {
                    return Ok(Some((s.meta.clone(), s.data.clone())));
                }
            }
            Ok(set.largest().map(|s| (s.meta.clone(), s.data.clone())))
        })
        .map_err(|e| e.to_string())
}

/// Time each layer's public entry point on the inputs `execute` used for
/// `sql`.
fn time_layers(
    session: &AqpSession,
    cfg: &SessionConfig,
    sql: &str,
    answer: &AqpAnswer,
) -> Result<Record, String> {
    let err = |e: &dyn std::fmt::Display| format!("{sql}: {e}");
    let registry = UdfRegistry::default();
    let mut r = Record::default();

    let t = now();
    let query = parse_query(sql).map_err(|e| err(&e))?;
    r.parse_us = us(since(t));
    let leaf = leaf_table(&query);
    let table = session.catalog().table(&leaf).map_err(|e| err(&e))?;
    let t = now();
    let plan = plan_query(&query, table.schema()).map_err(|e| err(&e))?;
    r.plan_us = us(since(t));

    if let Some((meta, sample)) = chosen_sample(session, &query, &leaf)? {
        let alpha = cfg.default_confidence;
        let diag_cfg = DiagnosticConfig::scaled_to(meta.rows, cfg.diagnostic_p);
        let spec = ResampleSpec {
            bootstrap_k: cfg.bootstrap_k,
            diagnostic: Some(DiagnosticWeights {
                subsample_rows: diag_cfg.subsample_rows.clone(),
                p: diag_cfg.p,
            }),
            seed: cfg.seed,
        };
        let method = if query.closed_form_applicable() {
            ErrorMethod::ClosedForm
        } else {
            ErrorMethod::Bootstrap
        };
        let t = now();
        let rewritten = rewrite_for_error_estimation(
            plan.clone(),
            spec,
            method,
            alpha,
            ResamplePlacement::PushedDown,
        );
        r.plan_us += us(since(t));

        let t = now();
        let collected = collect(&rewritten, &sample, THREADS).map_err(|e| err(&e))?;
        r.collect_sample = ms(since(t));

        let strata: Option<HashMap<String, (usize, usize)>> = meta.strata.as_ref().map(|st| {
            st.groups
                .iter()
                .map(|g| (g.key.clone(), (g.sample_rows, g.population_rows)))
                .collect()
        });
        let opts = ApproxOptions {
            method: MethodChoice::Auto,
            bootstrap_k: cfg.bootstrap_k,
            alpha,
            diagnostic: Some(diag_cfg.clone()),
            seed: cfg.seed,
            threads: THREADS,
            group_contexts: strata.clone(),
            obs: ObsHandle::isolated(Clock::Real),
            faults: None,
        };
        let t = now();
        execute_approx(&rewritten, &sample, table.num_rows(), &registry, &opts)
            .map_err(|e| err(&e))?;
        r.approx = ms(since(t));

        let population = table.num_rows();
        let seeds = SeedStream::new(cfg.seed);
        for (gi, g) in collected.groups.iter().enumerate() {
            let ctx = strata
                .as_ref()
                .and_then(|m| m.get(&g.key))
                .map(|&(s, p)| SampleContext::new(s, p))
                .unwrap_or(SampleContext::new(collected.pre_filter_rows, population));
            // The diagnostic's subsample sizes are in pre-filter sample rows.
            let diag_ctx = SampleContext::new(collected.pre_filter_rows, ctx.population_rows);
            for (ai, data) in g.aggs.iter().enumerate() {
                let func = &collected.agg_exprs[ai].func;
                let Some(agg) = builtin_of(func) else {
                    continue;
                };
                let job = seeds.derive((gi * 64 + ai) as u64);
                let xi = if func.closed_form_applicable() {
                    let t = now();
                    std::hint::black_box(closed_form_ci(&agg, &data.values, &ctx, alpha));
                    r.closed_form_us += us(since(t));
                    EstimationMethod::ClosedForm
                } else {
                    let mut rng = job.rng(0);
                    let t = now();
                    std::hint::black_box(bootstrap_ci(
                        &mut rng,
                        &data.values,
                        &ctx,
                        &agg,
                        cfg.bootstrap_k,
                        alpha,
                    ));
                    r.bootstrap += ms(since(t));
                    EstimationMethod::Bootstrap { k: cfg.bootstrap_k }
                };
                let t = now();
                std::hint::black_box(run_diagnostic(
                    &data.values,
                    &diag_ctx,
                    &Theta::Builtin(agg),
                    &xi,
                    &diag_cfg,
                    job.derive(1),
                ));
                r.diagnostics += ms(since(t));
            }
        }
        r.rows_scanned += answer.sample_rows as u64;
    }

    if matches!(
        answer.mode,
        AnswerMode::Exact | AnswerMode::ExactFallback | AnswerMode::PartialFallback
    ) {
        let t = now();
        let full = collect(&plan, &table, THREADS).map_err(|e| err(&e))?;
        r.collect_full = ms(since(t));
        r.full_rows = full.pre_filter_rows as u64;
        let t = now();
        execute_exact(&plan, &table, &registry, THREADS).map_err(|e| err(&e))?;
        r.exact = ms(since(t));
        r.rows_scanned += answer.population_rows as u64;
    }

    for (slot, stage) in r.engine.iter_mut().zip(ENGINE_STAGES) {
        *slot = stage_ms(answer, stage);
    }
    r.mode = Some(answer.mode);
    r.cells = answer.groups.iter().map(|g| g.aggs.len() as u64).sum();
    Ok(r)
}

fn counter(n: &str) -> u64 {
    MetricsRegistry::global().counter(n).get()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median wall of `f` over `reps` calls.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = now();
            std::hint::black_box(f());
            since(t).as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    Duration::from_secs_f64(walls[walls.len() / 2])
}

/// Kernel legs at the sizes of ROADMAP's baseline table: 1M Poisson(1)
/// draws, weighted SUM/AVG and a bootstrap over sampled values, a
/// single-column collect and a `city = 'NYC'` predicate over 100k rows.
fn kernels() -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut rng = rng_from_seed(KERNEL_SEED);
    let p1 = Poisson1::new();
    let mut weights = vec![0u32; 1_000_000];
    let poisson = timed(9, || p1.fill(&mut rng, &mut weights));

    let table = conviva_sessions_table(100_000, 8, KERNEL_SEED);
    let batch = table.to_batch().map_err(|e| e.to_string())?;
    let values = batch
        .column_by_name("time")
        .map_err(|e| e.to_string())?
        .to_f64_vec();
    let w = &weights[..values.len()];
    let ctx = SampleContext::new(values.len(), 1_000_000);
    let wsum = timed(21, || Aggregate::Sum.estimate_weighted(&values, w, &ctx));
    let wavg = timed(21, || Aggregate::Avg.estimate_weighted(&values, w, &ctx));
    let small = &values[..10_000];
    let small_ctx = SampleContext::new(small.len(), 1_000_000);
    let boot = timed(5, || {
        let mut rng = rng_from_seed(KERNEL_SEED);
        bootstrap_ci(&mut rng, small, &small_ctx, &Aggregate::Avg, 100, 0.95)
    });

    let query = parse_query("SELECT AVG(time) FROM sessions WHERE city = 'NYC'")
        .map_err(|e| e.to_string())?;
    let predicate = query
        .where_clause
        .clone()
        .ok_or("kernel query has no WHERE")?;
    let pred = timed(11, || aqp_sql::expr::eval_predicate(&predicate, &batch));
    let column_plan = plan_query(
        &parse_query("SELECT AVG(time) FROM sessions").map_err(|e| e.to_string())?,
        table.schema(),
    )
    .map_err(|e| e.to_string())?;
    let col = timed(11, || collect(&column_plan, &table, THREADS));

    let rows = batch.num_rows() as f64;
    let report = vec![
        format!(
            "Poisson1::fill, 1M draws         {:>9.2} ms  ({:.2} ns/draw)",
            ms(poisson),
            poisson.as_secs_f64() * 1e9 / 1e6
        ),
        format!("weighted SUM over 100k           {:>9.1} us", us(wsum)),
        format!("weighted AVG over 100k           {:>9.1} us", us(wavg)),
        format!("bootstrap K=100, AVG over 10k    {:>9.2} ms", ms(boot)),
        format!(
            "city = 'NYC' over 100k rows      {:>9.2} ms  ({:.2} M rows/s)",
            ms(pred),
            rows / pred.as_secs_f64() / 1e6
        ),
        format!("collect one column, 100k rows    {:>9.2} ms", ms(col)),
    ];
    let metrics = vec![
        metric(
            "stats.poisson_ns_per_draw",
            poisson.as_secs_f64() * 1e9 / 1e6,
            "ns",
        ),
        metric("stats.weighted_sum_us", us(wsum), "us"),
        metric("stats.weighted_avg_us", us(wavg), "us"),
        metric("stats.bootstrap_avg_10k_ms", ms(boot), "ms"),
        metric(
            "sql.city_predicate_ns_per_row",
            pred.as_secs_f64() * 1e9 / rows,
            "ns",
        ),
        metric("exec.collect_100k_us", us(col), "us"),
    ];
    Ok((metrics, report))
}

/// The query rows of ROADMAP's baseline table, on a telemetry-off session
/// with samples built from this run's tables.
fn baseline(p: &Prepared) -> Result<Vec<String>, String> {
    let (session, _) = workload::set_up(
        Workload::TailFallback,
        workload::session_config(false),
        &p.tables,
        p.scale,
    )
    .map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for (sql, reps) in [
        ("SELECT MAX(payload_kb) FROM events", 3),
        ("SELECT AVG(dwell_frac) FROM events", 5),
    ] {
        let mut walls = Vec::new();
        let mut stages: Vec<Vec<f64>> = vec![Vec::new(); ENGINE_STAGES.len()];
        let mut mode = None;
        for _ in 0..reps {
            let t = now();
            let a = session.execute(sql).map_err(|e| e.to_string())?;
            walls.push(ms(since(t)));
            for (out, stage) in stages.iter_mut().zip(ENGINE_STAGES) {
                out.push(stage_ms(&a, stage));
            }
            mode = Some(a.mode);
        }
        let split: Vec<String> = ENGINE_STAGES
            .iter()
            .zip(&stages)
            .map(|(s, v)| format!("{s} {:.1}", median(v)))
            .collect();
        lines.push(format!(
            "{sql}: {:?}, {:.1} ms ({})",
            mode.ok_or("no repetitions")?,
            median(&walls),
            split.join(", ")
        ));
    }
    let sql = "SELECT AVG(time) FROM sessions";
    let query = parse_query(sql).map_err(|e| e.to_string())?;
    let plan = plan_query(&query, p.tables.sessions.schema()).map_err(|e| e.to_string())?;
    let exact = timed(3, || {
        execute_exact(&plan, &p.tables.sessions, &UdfRegistry::default(), THREADS)
    });
    lines.push(format!(
        "exact {sql} over {} rows: {:.1} ms ({:.2} M rows/s)",
        p.tables.sessions.num_rows(),
        ms(exact),
        p.tables.sessions.num_rows() as f64 / exact.as_secs_f64() / 1e6
    ));
    Ok(lines)
}

/// Engine spans next to the benchmark's outside measurements; pairs that
/// disagree by more than `ATTRIBUTION_BOUND` are listed. Report only.
fn attribution(records: &[Record]) -> Vec<String> {
    let m = |f: &dyn Fn(&Record) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let pairs: [(&str, f64, &str, f64); 4] = [
        (
            "exec.collect_sample_ms",
            m(&|r| r.collect_sample),
            "engine.scan_collect_ms",
            m(&|r| r.engine[0]),
        ),
        (
            "stats.bootstrap_ms + stats.closed_form_us",
            m(&|r| r.bootstrap + r.closed_form_us / 1e3),
            "engine.error_estimation_ms",
            m(&|r| r.engine[1]),
        ),
        (
            "diagnostics.run_ms",
            m(&|r| r.diagnostics),
            "engine.diagnostics_ms",
            m(&|r| r.engine[2]),
        ),
        (
            "exec.exact_ms",
            m(&|r| r.exact),
            "engine.exact_execution_ms",
            m(&|r| r.engine[3]),
        ),
    ];
    let mut lines = Vec::new();
    let mut disagree = Vec::new();
    for (outside, a, engine, b) in pairs {
        let gap = (a - b).abs() / a.max(b).max(1e-9);
        lines.push(format!(
            "{outside:<42} {a:>9.3} ms   {engine:<27} {b:>9.3} ms   gap {:>5.1}%",
            gap * 100.0
        ));
        if a.max(b) >= 0.05 && gap > ATTRIBUTION_BOUND {
            disagree.push(format!("{outside} vs {engine}"));
        }
    }
    lines.push(if disagree.is_empty() {
        format!(
            "no pair disagrees by more than {:.0}%",
            ATTRIBUTION_BOUND * 100.0
        )
    } else {
        format!(
            "disagree by more than {:.0}%: {}",
            ATTRIBUTION_BOUND * 100.0,
            disagree.join("; ")
        )
    });
    lines
}

/// Median layer split per query template.
fn split_by_kind(records: &[Record]) -> Vec<String> {
    let mut kinds: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
    for r in records {
        kinds.entry(r.kind).or_default().push(r);
    }
    let mut lines = vec![format!(
        "{:<16} {:>3} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "kind", "n", "execute", "collect", "approx", "bootstrap", "diagnose", "exact", "core.self"
    )];
    for (kind, rs) in kinds {
        let med = |f: &dyn Fn(&Record) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
        lines.push(format!(
            "{kind:<16} {:>3} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            rs.len(),
            med(&|r| r.wall),
            med(&|r| r.collect_sample),
            med(&|r| r.approx),
            med(&|r| r.bootstrap),
            med(&|r| r.diagnostics),
            med(&|r| r.exact),
            med(&|r| r.core_self()),
        ));
    }
    lines
}

pub fn traced(p: &mut Prepared) -> Result<Vec<Metric>, String> {
    let started = now();
    let w = p.workload;
    let n = w.traced_queries().min(p.plan.stream.len());
    let prefix: Vec<usize> = p.plan.stream[..n].to_vec();
    let cfg = workload::session_config(w.telemetry());

    // Untraced pass over the prefix: the reference for the trace
    // overhead and the telemetry-on side of the telemetry cost.
    let mut untraced: Vec<Option<f64>> = vec![None; n];
    for (pos, &idx) in prefix.iter().enumerate() {
        let q = &p.plan.pool[idx];
        let (result, wall) = run_query(&p.session, &q.sql);
        if p.verifier.verify(&p.session, idx, q, &result) {
            untraced[pos] = Some(ms(wall));
        }
    }

    // Traced pass: the same queries again, each followed by the layer calls.
    let mut records: Vec<Record> = Vec::new();
    let mut overhead_pairs: Vec<(f64, f64)> = Vec::new(); // (untraced, traced) wall
    let mut introspect_walls: Vec<f64> = Vec::new();
    let (mut resamples, mut accepted, mut rejected, mut audited) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_queries = 0usize;
    for (pos, &idx) in prefix.iter().enumerate() {
        if since(started) > TRACE_BUDGET {
            eprintln!("warning: traced pass stopped after {pos} of {n} queries (time budget)");
            break;
        }
        let q = p.plan.pool[idx].clone();
        let before = [
            counter(name::STATS_BOOTSTRAP_RESAMPLES),
            counter(name::DIAG_ACCEPTED),
            counter(name::DIAG_REJECTED),
            counter(name::AUDIT_AUDITED),
        ];
        let (result, wall) = run_query(&p.session, &q.sql);
        resamples += counter(name::STATS_BOOTSTRAP_RESAMPLES) - before[0];
        accepted += counter(name::DIAG_ACCEPTED) - before[1];
        rejected += counter(name::DIAG_REJECTED) - before[2];
        audited += counter(name::AUDIT_AUDITED) - before[3];
        traced_queries += 1;
        if !p.verifier.verify(&p.session, idx, &q, &result) {
            continue;
        }
        let Ok(answer) = result else { continue };
        if let Some(u) = untraced[pos] {
            overhead_pairs.push((u, ms(wall)));
        }
        if q.telemetry {
            introspect_walls.push(ms(wall));
            continue;
        }
        let mut r = time_layers(&p.session, &cfg, &q.sql, &answer)?;
        r.kind = q.kind;
        r.wall = ms(wall);
        records.push(r);
    }

    // Telemetry cost: the same non-telemetry queries on a twin session
    // with the observability stack off.
    let mut telemetry_ms = 0.0;
    if w.telemetry() {
        let (twin, _) = workload::set_up(w, workload::session_config(false), &p.tables, p.scale)
            .map_err(|e| format!("twin set-up: {e}"))?;
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (pos, &idx) in prefix.iter().enumerate() {
            let q = &p.plan.pool[idx];
            if q.telemetry {
                continue;
            }
            let (result, wall) = run_query(&twin, &q.sql);
            if p.verifier.verify(&twin, idx, q, &result) {
                if let Some(u) = untraced[pos] {
                    on.push(u);
                    off.push(ms(wall));
                }
            }
        }
        telemetry_ms = mean(&on) - mean(&off);
    }

    let (kernel_metrics, kernel_report) = kernels()?;
    let baseline_report = baseline(p)?;

    let m = |f: &dyn Fn(&Record) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let approx_total: f64 = records.iter().map(|r| r.approx).sum();
    let wasted: f64 = records
        .iter()
        .filter(|r| r.mode == Some(AnswerMode::ExactFallback))
        .map(|r| r.approx)
        .sum();
    let full_rows: u64 = records.iter().map(|r| r.full_rows).sum();
    let full_ms: f64 = records.iter().map(|r| r.collect_full).sum();
    let cells: u64 = records.iter().map(|r| r.cells).sum();
    let rows_scanned: u64 = records.iter().map(|r| r.rows_scanned).sum();
    let fallbacks = records
        .iter()
        .filter(|r| {
            matches!(
                r.mode,
                Some(AnswerMode::ExactFallback | AnswerMode::PartialFallback)
            )
        })
        .count();
    // A median of per-query ratios: audit replays land on different
    // queries in the two passes and would swamp a ratio of sums.
    let overhead: Vec<f64> = overhead_pairs.iter().map(|(u, t)| t / u).collect();
    let setup_median = |f: &dyn Fn(&workload::SetupTimes) -> Duration| {
        median(&p.setups.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };

    eprintln!("\n== layer split by query kind (medians, ms) ==");
    split_by_kind(&records)
        .iter()
        .for_each(|l| eprintln!("{l}"));
    eprintln!("\n== attribution: engine spans vs outside timings (means per query) ==");
    attribution(&records).iter().for_each(|l| eprintln!("{l}"));
    eprintln!("\n== baseline table (measured wall time, {THREADS} engine threads) ==");
    baseline_report
        .iter()
        .chain(&kernel_report)
        .for_each(|l| eprintln!("{l}"));
    eprintln!(
        "\ntraced {traced_queries} queries in {:.1} s (set-up median {:.3} s)\n",
        since(started).as_secs_f64(),
        setup_seconds(&p.setups)
    );

    let mut metrics = vec![
        metric("sql.parse_us", m(&|r| r.parse_us), "us"),
        metric("sql.plan_us", m(&|r| r.plan_us), "us"),
        metric(
            "storage.sample_build_ms",
            setup_median(&|t| t.samples),
            "ms",
        ),
        metric(
            "storage.stratified_build_ms",
            setup_median(&|t| t.stratified),
            "ms",
        ),
        metric("exec.collect_sample_ms", m(&|r| r.collect_sample), "ms"),
        metric("exec.collect_full_ms", m(&|r| r.collect_full), "ms"),
        metric(
            "exec.collect_rows_per_s",
            if full_ms > 0.0 {
                full_rows as f64 / (full_ms / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        metric("exec.approx_ms", m(&|r| r.approx), "ms"),
        metric("exec.exact_ms", m(&|r| r.exact), "ms"),
        metric(
            "exec.rows_per_result",
            rows_scanned as f64 / cells.max(1) as f64,
            "count",
        ),
        metric("stats.bootstrap_ms", m(&|r| r.bootstrap), "ms"),
        metric("stats.closed_form_us", m(&|r| r.closed_form_us), "us"),
        metric(
            "stats.resamples_per_query",
            resamples as f64 / traced_queries.max(1) as f64,
            "count",
        ),
        metric("diagnostics.run_ms", m(&|r| r.diagnostics), "ms"),
        metric(
            "diagnostics.reject_share",
            rejected as f64 / (accepted + rejected).max(1) as f64,
            "ratio",
        ),
        metric("core.self_ms", m(&|r| r.core_self()), "ms"),
        metric(
            "core.wasted_approx_share",
            if approx_total > 0.0 {
                wasted / approx_total
            } else {
                0.0
            },
            "ratio",
        ),
        metric("core.fallback_queries", fallbacks as f64, "count"),
        metric("telemetry.per_query_ms", telemetry_ms, "ms"),
        metric("introspect.query_ms", mean(&introspect_walls), "ms"),
        metric("audit.replays", audited as f64, "count"),
        metric("engine.scan_collect_ms", m(&|r| r.engine[0]), "ms"),
        metric("engine.error_estimation_ms", m(&|r| r.engine[1]), "ms"),
        metric("engine.diagnostics_ms", m(&|r| r.engine[2]), "ms"),
        metric("engine.exact_execution_ms", m(&|r| r.engine[3]), "ms"),
        metric(
            "bench.trace_overhead_pct",
            if overhead.is_empty() {
                0.0
            } else {
                (median(&overhead) - 1.0) * 100.0
            },
            "%",
        ),
    ];
    metrics.extend(kernel_metrics);
    Ok(metrics)
}
