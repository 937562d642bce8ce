//! Golden pin of the full telemetry stack: audit, SLO (with its flight
//! recorder), continuous profiling and introspection all switched on in
//! one session, over a fault-injected query stream on the mock clock.
//!
//! Everything the four observers produce is rendered into one text
//! artifact and byte-compared against `tests/golden/telemetry_stack.txt`:
//! the audit and SLO report tables, every flight-recorder dump (header,
//! alert context and an FNV-1a digest of the full dump, plus the last
//! dump verbatim), the cumulative profile, the metrics snapshot, and
//! exact bit patterns of `_telemetry.*` answers. Straggler delays
//! advance the mock clock, so latency objectives fire as well as
//! coverage objectives and audit-window alerts.
//!
//! Re-record after an intentional change with
//! `TELEMETRY_GOLDEN_BLESS=1 cargo test --test telemetry_golden`, and
//! review the diff before committing it.

use std::time::Duration;

use reliable_aqp::audit::AuditConfig;
use reliable_aqp::faults::{FaultConfig, StragglerDelay};
use reliable_aqp::obs::{Clock, FlightRecorderConfig, ObsHandle};
use reliable_aqp::slo::SloConfig;
use reliable_aqp::workload::facebook_events_table;
use reliable_aqp::{AqpAnswer, AqpSession, ContProfConfig, IntrospectConfig, SessionConfig};

const GOLDEN: &str = "tests/golden/telemetry_stack.txt";

/// The query stream: a miscalibrated MAX over a Pareto tail (coverage
/// collapses), a well-behaved AVG, and a GROUP BY dashboard query.
const STREAM: [&str; 3] = [
    "SELECT MAX(payload_kb) FROM events",
    "SELECT AVG(latency_ms) FROM events",
    "SELECT country, SUM(wait_s) FROM events GROUP BY country",
];

/// The `_telemetry.*` questions answered after the stream.
const TELEMETRY_QUERIES: [&str; 7] = [
    "SELECT class, mode, COUNT(*) FROM _telemetry.queries GROUP BY class, mode",
    "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
    "SELECT agg, AVG(covered) FROM _telemetry.audit GROUP BY agg",
    "SELECT trigger, severity, COUNT(*) FROM _telemetry.slo_alerts GROUP BY trigger, severity",
    "SELECT objective, SUM(query) FROM _telemetry.slo_alerts GROUP BY objective",
    "SELECT kind, SUM(value) FROM _telemetry.metrics GROUP BY kind",
    "SELECT op, SUM(rows_out) FROM _telemetry.ops GROUP BY op",
];

fn session(obs: ObsHandle, recorder_path: &std::path::Path) -> AqpSession {
    let mut faults = FaultConfig::quiescent(17);
    faults.straggler_prob = 0.3;
    faults.straggler_delay = StragglerDelay::Fixed(Duration::from_millis(40));
    faults.truncation_prob = 0.05;
    faults.worker_death_prob = 0.02;
    faults.recovery.max_retries = 0;
    faults.recovery.max_lost_fraction = 0.0;
    let s = AqpSession::new(SessionConfig {
        seed: 4,
        threads: 1,
        bootstrap_k: 30,
        run_diagnostics: false,
        obs,
        audit: Some(AuditConfig {
            sample_rate: 1.0,
            seed: 9,
            window: 20,
            min_window_for_alert: 8,
            column_families: vec![
                ("payload_kb".into(), "pareto".into()),
                ("latency_ms".into(), "lognormal".into()),
            ],
            ..Default::default()
        }),
        faults: Some(faults),
        slo: Some(
            SloConfig::new()
                .with_class("dashboards", "GROUP BY")
                .with_class("tail", "MAX(")
                .with_coverage("tail", 0.95)
                .with_latency("dashboards", 0.95, 30.0)
                .with_latency(SloConfig::DEFAULT_CLASS, 0.95, 30.0)
                .with_recorder(FlightRecorderConfig::at(3, recorder_path)),
        ),
        contprof: Some(
            ContProfConfig::new().with_class("dashboards", "GROUP BY").with_class("tail", "MAX("),
        ),
        introspect: Some(IntrospectConfig {
            min_rows_for_sampling: 32,
            metrics_every: 5,
            ..IntrospectConfig::new().with_seed(21).with_class("dashboards", "GROUP BY")
        }),
        ..Default::default()
    });
    s.register_table(facebook_events_table(20_000, 4, 3)).unwrap();
    s.build_samples("events", &[4_000], 5).unwrap();
    s
}

/// An answer as exact bit patterns.
fn render_answer(a: &AqpAnswer) -> String {
    let mut out = format!("mode={:?} sample={}/{}\n", a.mode, a.sample_rows, a.population_rows);
    for g in &a.groups {
        for agg in &g.aggs {
            let ci = match &agg.ci {
                Some(c) => format!("{:x}±{:x}", c.center.to_bits(), c.half_width.to_bits()),
                None => "-".to_string(),
            };
            out.push_str(&format!("  {} {} {:x} ci={}\n", g.key, agg.name, agg.estimate.to_bits(), ci));
        }
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Split the recorder's appended artifact into its dumps.
fn dumps(artifact: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in artifact.lines() {
        if line.starts_with("{\"recorder\":") || out.is_empty() {
            out.push(String::new());
        }
        if let Some(last) = out.last_mut() {
            last.push_str(line);
            last.push('\n');
        }
    }
    out
}

fn render_stack() -> String {
    let dir = std::env::temp_dir().join(format!("aqp-telemetry-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recorder_path = dir.join("recorder.jsonl");
    let _ = std::fs::remove_file(&recorder_path);

    let obs = ObsHandle::isolated(Clock::mock());
    let s = session(obs.clone(), &recorder_path);
    let mut out = String::from("== stream\n");
    for i in 0..90 {
        let sql = STREAM[i % STREAM.len()];
        match s.execute(sql) {
            Ok(a) => out.push_str(&format!("{i:02} {:?} fell_back={}\n", a.mode, a.fell_back)),
            Err(e) => out.push_str(&format!("{i:02} error: {e}\n")),
        }
    }
    out.push_str("== audit report\n");
    out.push_str(&s.audit_report().unwrap().render_table());
    out.push_str("== slo report\n");
    out.push_str(&s.slo_report().unwrap().render_table());
    out.push_str("== cumulative profile\n");
    out.push_str(&s.cumulative_profile().unwrap().to_json());
    out.push_str("== telemetry answers\n");
    for sql in TELEMETRY_QUERIES {
        out.push_str(&format!("-- {sql}\n"));
        match s.execute(sql) {
            Ok(a) => out.push_str(&render_answer(&a)),
            Err(e) => out.push_str(&format!("error: {e}\n")),
        }
    }
    out.push_str("== metrics\n");
    out.push_str(&obs.metrics.snapshot().to_jsonl());
    let artifact = std::fs::read_to_string(&recorder_path).unwrap_or_default();
    let all = dumps(&artifact);
    out.push_str(&format!("== flight recorder: {} dumps\n", all.len()));
    for d in &all {
        let mut lines = d.lines();
        out.push_str(lines.next().unwrap_or(""));
        out.push('\n');
        if let Some(ctx) = lines.next().filter(|l| l.starts_with("{\"context\":")) {
            out.push_str(ctx);
            out.push('\n');
        }
        out.push_str(&format!("fnv1a={:016x}\n", fnv1a(d.as_bytes())));
    }
    out.push_str("== last dump\n");
    out.push_str(&s.flight_recorder().unwrap().last_dump().unwrap_or_default());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn combined_telemetry_stack_matches_golden() {
    // Under `count-alloc`, spans carry live allocator counts, which are
    // excluded from bit-stable artifacts by contract.
    if reliable_aqp::obs::alloc::enabled() {
        return;
    }
    let rendered = render_stack();
    // Left behind for diffing against the golden.
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/telemetry_stack.rendered.txt", &rendered);
    // The stream must exercise every alert kind the golden pins.
    assert!(rendered.contains("\"reason\":\"audit:"), "no audit-window alert dumped");
    assert!(rendered.contains("\"trigger\":\"audit_score\""), "no SLO coverage alert dumped");
    assert!(rendered.contains("\"trigger\":\"latency\""), "no SLO latency alert dumped");
    if std::env::var_os("TELEMETRY_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e}; bless with TELEMETRY_GOLDEN_BLESS=1"));
    if golden != rendered {
        let first = golden
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(golden.lines().count().min(rendered.lines().count()));
        panic!(
            "telemetry stack drifted from {GOLDEN} at line {}:\n  golden:   {}\n  rendered: {}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<eof>"),
            rendered.lines().nth(first).unwrap_or("<eof>"),
        );
    }
}
