//! §3's headline failure-rate tables, reproduced by *auditing* a live
//! synthetic workload trace instead of an offline study.
//!
//! Two phases run through a real `AqpSession` with the continuous
//! auditor on:
//!
//! * **well-calibrated** — closed-form AVG/SUM/COUNT over Conviva-like
//!   sessions with the diagnostic on: CI coverage should track the
//!   claimed 95% confidence and the confusion matrix should be
//!   TA-dominated;
//! * **miscalibrated** — bootstrap MAX/MIN over Pareto-tailed Facebook
//!   payloads with the diagnostic *off* (the paper's cautionary tale:
//!   error bars served unchecked on an extreme statistic). Coverage
//!   collapses and the auditor's threshold alert must fire.
//!
//! Fixed seed + one worker thread ⇒ the report on stdout is
//! bit-identical across runs (timings go to stderr/metrics only).

use aqp_audit::AuditConfig;
use aqp_obs::LogConfig;
use aqp_bench::{section, tsv_row, Args};
use aqp_core::{AqpSession, SessionConfig};
use aqp_workload::{conviva_sessions_table, facebook_events_table};

fn session(seed: u64, run_diagnostics: bool, audit: AuditConfig) -> AqpSession {
    AqpSession::new(SessionConfig {
        seed,
        threads: 1, // determinism: a fixed scan/merge order
        bootstrap_k: 40,
        diagnostic_p: 50,
        run_diagnostics,
        audit: Some(audit),
        ..Default::default()
    })
}

fn main() {
    let args = Args::parse();
    let queries: usize = args.get("queries").unwrap_or(2_000);
    let seed: u64 = args.get("seed").unwrap_or(1);
    let rate: f64 = args.get("rate").unwrap_or(0.1);
    let rows: usize = args.get("population").unwrap_or(40_000);
    let sample: usize = args.get("sample").unwrap_or(8_000);
    let audit_log: Option<String> = args.get("audit-log");

    // 70% well-calibrated traffic, 30% miscalibrated.
    let good_queries = queries * 7 / 10;
    let bad_queries = queries - good_queries;

    println!(
        "{}",
        section("Audit coverage — failure rates from a continuously audited trace")
    );
    println!(
        "trace: {queries} queries ({good_queries} calibrated + {bad_queries} miscalibrated), \
         population {rows}, sample {sample}, audit rate {rate}, seed {seed}"
    );

    let audit_cfg = |families: &[(&str, &str)]| AuditConfig {
        sample_rate: rate,
        seed: seed ^ 0xA0D1,
        window: 200,
        coverage_alert_below: 0.90,
        min_window_for_alert: 30,
        log: audit_log.as_ref().map(LogConfig::at),
        column_families: families
            .iter()
            .map(|&(c, f)| (c.to_string(), f.to_string()))
            .collect(),
    };

    // --- Phase 1: calibrated closed-form traffic. Mostly templates the
    // diagnostic accepts (AVG/SUM/COUNT over well-behaved columns); one
    // in five is a heavier-tailed AVG(bytes) the diagnostic rejects, so
    // the confusion matrix exercises the reject column too (those audits
    // reuse the fallback's exact run for truth). ---
    let clock = aqp_obs::Clock::real();
    let started = clock.now();
    let s1 = session(
        seed,
        true,
        audit_cfg(&[("time", "lognormal"), ("bytes", "heavy_tail"), ("*", "count")]),
    );
    s1.register_table(conviva_sessions_table(rows, 4, seed)).expect("register");
    s1.build_samples("sessions", &[sample], seed ^ 7).expect("samples");
    for i in 0..good_queries {
        let sql = match i % 5 {
            0 => "SELECT AVG(time) FROM sessions",
            1 => "SELECT SUM(time) FROM sessions",
            2 => "SELECT COUNT(*) FROM sessions WHERE is_mobile = true",
            3 => "SELECT AVG(bytes) FROM sessions",
            _ => "SELECT COUNT(*) FROM sessions",
        };
        s1.execute(sql).expect("calibrated query");
    }
    let r1 = s1.audit_report().expect("auditing is on");

    // --- Phase 2: miscalibrated traffic — extreme statistics over a
    // Pareto tail with the diagnostic disabled. Audited at 5× the base
    // rate (an operator probing a suspect config) so even short smoke
    // runs accumulate an alert-worthy window. ---
    let mut bad_audit = audit_cfg(&[("payload_kb", "pareto")]);
    bad_audit.sample_rate = (rate * 5.0).min(1.0);
    let s2 = session(seed ^ 0xBAD, false, bad_audit);
    s2.register_table(facebook_events_table(rows, 4, seed ^ 3)).expect("register");
    s2.build_samples("events", &[sample], seed ^ 11).expect("samples");
    let countries = ["'NYC'", "'LA'", "'SF'"];
    for i in 0..bad_queries {
        let sql = match i % 3 {
            0 | 1 => "SELECT MAX(payload_kb) FROM events".to_string(),
            _ => format!("SELECT MAX(payload_kb) FROM events WHERE country = {}", countries[i % 3]),
        };
        s2.execute(&sql).expect("miscalibrated query");
    }
    let r2 = s2.audit_report().expect("auditing is on");
    let elapsed = clock.now().duration_since(started);

    // --- The report (stdout, deterministic). ---
    for (label, r) in [("calibrated (diagnostic on)", &r1), ("miscalibrated (diagnostic off)", &r2)]
    {
        println!("\n--- {label} ---");
        print!("{}", r.render_table());
    }

    println!("\nTSV: phase\tkey\tscored\tcoverage_pct\tfailure_pct\tfp_rate\tfn_rate");
    for (phase, r) in [("calibrated", &r1), ("miscalibrated", &r2)] {
        for k in std::iter::once(&r.overall).chain(r.keys.iter()) {
            let cov = k.coverage.unwrap_or(f64::NAN) * 100.0;
            println!(
                "{}",
                tsv_row(&[
                    phase.to_string(),
                    k.key.clone(),
                    k.scored.to_string(),
                    format!("{cov:.1}"),
                    format!("{:.1}", 100.0 - cov),
                    k.confusion
                        .false_positive_rate()
                        .map(|r| format!("{r:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                    k.confusion
                        .false_negative_rate()
                        .map(|r| format!("{r:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                ])
            );
        }
    }

    let total_alerts = r1.alerts.len() + r2.alerts.len();
    println!(
        "\nHeadline: calibrated coverage {:.1}% (claimed 95%), miscalibrated coverage {:.1}% \
         — {total_alerts} coverage alert(s) fired.",
        r1.overall.coverage.unwrap_or(f64::NAN) * 100.0,
        r2.overall.coverage.unwrap_or(f64::NAN) * 100.0,
    );
    println!(
        "Paper: unchecked error bars on extreme statistics fail silently; the diagnostic \
         (or this auditor) is what surfaces it."
    );
    if r2.alerts.is_empty() {
        println!("WARNING: expected at least one alert on the miscalibrated phase");
    }
    eprintln!("wall clock: {:.2}s (excluded from stdout for determinism)", elapsed.as_secs_f64());
    if let Some(path) = &audit_log {
        eprintln!("audit log written to {path}");
    }

    aqp_bench::maybe_write_metrics(&args);
}
