//! The three workloads: generated tables, session configurations, set-up
//! and the seeded query streams.

use std::time::Duration;

use aqp_audit::AuditConfig;
use aqp_core::{AqpSession, ContProfConfig, IntrospectConfig, SessionConfig};
use aqp_slo::SloConfig;
use aqp_stats::rng::{rng_from_seed, SeedStream};
use aqp_storage::Table;
use aqp_workload::{conviva_sessions_table, facebook_events_table};
use rand::RngExt;

use crate::{now, since};

/// Engine worker threads; every workload runs with the same count so
/// answers are comparable bit for bit across runs.
pub const THREADS: usize = 2;

/// Partitions of each generated table.
const PARTITIONS: usize = 8;

/// Every `TELEMETRY_EVERY`-th dashboard query reads `_telemetry.*`.
const TELEMETRY_EVERY: usize = 25;

/// Cities of the generated `sessions.city` / `events.country` columns, by
/// Zipf rank (rank 1 = NYC), as `aqp_workload::datagen` draws them.
const CITIES: [&str; 16] = [
    "NYC",
    "LA",
    "Chicago",
    "Houston",
    "Phoenix",
    "Philadelphia",
    "SanAntonio",
    "SanDiego",
    "Dallas",
    "Austin",
    "SF",
    "Seattle",
    "Denver",
    "Boston",
    "Portland",
    "Miami",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Accepted closed-form queries over samples, full telemetry stack.
    Dashboard,
    /// Queries the diagnostic rejects in whole or in part.
    TailFallback,
    /// No samples: every query scans the full table.
    ExactScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dashboard" => Some(Workload::Dashboard),
            "tail_fallback" => Some(Workload::TailFallback),
            "exact_scan" => Some(Workload::ExactScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dashboard => "dashboard",
            Workload::TailFallback => "tail_fallback",
            Workload::ExactScan => "exact_scan",
        }
    }

    pub fn has_samples(self) -> bool {
        self != Workload::ExactScan
    }

    pub fn telemetry(self) -> bool {
        self == Workload::Dashboard
    }

    /// How many timed set-ups one run makes (`setup_s` is their median,
    /// or their minimum for the registration-only set-up). The sampled
    /// workloads spread theirs over the measured phase.
    pub fn setup_repeats(self) -> usize {
        if self.has_samples() {
            9
        } else {
            50_000
        }
    }

    /// Queries the traced run walks: a fixed prefix of the stream, so its
    /// counts repeat exactly for a seed.
    pub fn traced_queries(self) -> usize {
        match self {
            Workload::Dashboard => 75,
            Workload::TailFallback => 25,
            Workload::ExactScan => 40,
        }
    }
}

/// Table and sample sizes. The benchmark runs at 1M rows; the smoke test
/// shrinks everything proportionally.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub rows: usize,
    pub sample_rows: usize,
    pub rows_per_stratum: usize,
}

impl Scale {
    pub fn new(rows: usize) -> Scale {
        Scale {
            rows,
            sample_rows: (rows / 10).max(1),
            rows_per_stratum: (rows / 200).max(1),
        }
    }
}

/// Seed of the fixture every run shares: the tables, the samples and the
/// session's estimation seeds. `--seed` varies only the query stream, so
/// runs differ in the queries they send, not in the data under them.
const FIXTURE_SEED: u64 = 0x5A3D_2014;

/// The two generated tables every workload shares.
pub struct Tables {
    pub events: Table,
    pub sessions: Table,
}

pub fn generate_tables(rows: usize) -> Tables {
    let seeds = SeedStream::new(FIXTURE_SEED);
    Tables {
        events: facebook_events_table(rows, PARTITIONS, seeds.seed(1)),
        sessions: conviva_sessions_table(rows, PARTITIONS, seeds.seed(2)),
    }
}

/// Class rules shared by the SLO engine and the continuous profiler.
const CLASSES: [(&str, &str); 3] = [
    ("telemetry", "_telemetry."),
    ("events", "FROM events"),
    ("sessions", "FROM sessions"),
];

/// The session configuration. `telemetry` turns the full observability
/// stack on (audit at 10%, SLO, contprof, introspect); the dashboard's
/// traced run also builds a twin with it off.
pub fn session_config(telemetry: bool) -> SessionConfig {
    let seeds = SeedStream::new(FIXTURE_SEED);
    let mut cfg = SessionConfig {
        seed: seeds.seed(3),
        threads: THREADS,
        ..Default::default()
    };
    if telemetry {
        cfg.audit = Some(AuditConfig {
            sample_rate: 0.1,
            seed: seeds.seed(4),
            column_families: vec![
                ("payload_kb".into(), "pareto".into()),
                ("latency_ms".into(), "lognormal".into()),
                ("time".into(), "lognormal".into()),
                ("*".into(), "count".into()),
            ],
            ..Default::default()
        });
        let mut slo = SloConfig::new();
        let mut contprof = ContProfConfig::new();
        for (class, needle) in CLASSES {
            slo = slo.with_class(class, needle);
            contprof = contprof.with_class(class, needle);
        }
        cfg.slo = Some(
            slo.with_latency("events", 0.9, 150.0)
                .with_latency("sessions", 0.9, 150.0)
                .with_coverage("events", 0.95)
                .with_coverage("sessions", 0.95),
        );
        cfg.contprof = Some(contprof);
        cfg.introspect = Some(IntrospectConfig::new().with_seed(seeds.seed(5)));
    }
    cfg
}

/// Wall time of one set-up, split by call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub samples: Duration,
    pub stratified: Duration,
}

/// Create a session, register both tables and, for the sampled workloads,
/// build the uniform samples of both and the stratified sample on
/// `events.country`. Only these calls are timed; table generation
/// happened before.
pub fn set_up(
    w: Workload,
    cfg: SessionConfig,
    tables: &Tables,
    scale: Scale,
) -> aqp_core::Result<(AqpSession, SetupTimes)> {
    let seeds = SeedStream::new(FIXTURE_SEED);
    let (events, sessions) = (tables.events.clone(), tables.sessions.clone());
    let t0 = now();
    let session = AqpSession::new(cfg);
    session.register_table(events)?;
    session.register_table(sessions)?;
    let mut times = SetupTimes::default();
    if w.has_samples() {
        let t1 = now();
        session.build_samples("events", &[scale.sample_rows], seeds.seed(6))?;
        session.build_samples("sessions", &[scale.sample_rows], seeds.seed(7))?;
        times.samples = since(t1);
        let t2 = now();
        session.build_stratified_sample(
            "events",
            "country",
            scale.rows_per_stratum,
            seeds.seed(8),
        )?;
        times.stratified = since(t2);
    }
    times.total = since(t0);
    Ok((session, times))
}

/// Set-up of the unsampled workload: a fresh session with both tables
/// registered, timed `repeats` times; the fastest one is reported. One
/// set-up takes about a microsecond, where the machine's other load
/// only ever adds time: the median of even 50 000 tries moves by a
/// third between processes, the minimum by well under that.
pub fn fastest_registration(
    cfg: impl Fn() -> SessionConfig,
    tables: &Tables,
    repeats: usize,
) -> aqp_core::Result<SetupTimes> {
    let mut fastest = Duration::MAX;
    for _ in 0..repeats {
        let (config, events, sessions) = (cfg(), tables.events.clone(), tables.sessions.clone());
        let t = now();
        let session = AqpSession::new(config);
        session.register_table(events)?;
        session.register_table(sessions)?;
        fastest = fastest.min(since(t));
    }
    Ok(SetupTimes {
        total: fastest,
        ..Default::default()
    })
}

/// One distinct query of a workload's pool.
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    /// Template name, for the per-kind layer split.
    pub kind: &'static str,
    /// Reads `_telemetry.*`: its input is the session's own wall-time
    /// telemetry, so it gets a live oracle and no determinism check.
    pub telemetry: bool,
}

/// A seeded query pool plus the closed-loop stream over it.
pub struct QueryPlan {
    pub pool: Vec<Query>,
    /// Indices into `pool`, in send order.
    pub stream: Vec<usize>,
}

/// A template class: its slots per stream block and its distinct queries.
struct Class {
    slots: usize,
    queries: Vec<Query>,
}

fn class(slots: usize, kind: &'static str, sqls: Vec<String>) -> Class {
    Class {
        slots,
        queries: sqls
            .into_iter()
            .map(|sql| Query {
                sql,
                kind,
                telemetry: false,
            })
            .collect(),
    }
}

/// One integer from each of `n` equal buckets of `lo..hi`: the seed picks
/// the values while the spread of the pool stays fixed.
fn stratified<R: rand::Rng>(rng: &mut R, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let width = (hi - lo) / n as i64;
    (0..n as i64)
        .map(|b| lo + b * width + rng.random_range(0..width))
        .collect()
}

/// `n` cities, one from each of `n` equal bands of Zipf rank, so every
/// pool mixes popular and rare cities the same way.
fn cities<R: rand::Rng>(rng: &mut R, n: usize) -> Vec<&'static str> {
    stratified(rng, n, 0, CITIES.len() as i64)
        .into_iter()
        .map(|i| CITIES[i as usize])
        .collect()
}

fn classes(w: Workload, seed: u64) -> Vec<Class> {
    let mut rng = rng_from_seed(SeedStream::new(seed).seed(9));
    let rng = &mut rng;
    let by_city = |rng: &mut _, n, fmt: &dyn Fn(&str) -> String| -> Vec<String> {
        cities(rng, n).into_iter().map(fmt).collect()
    };
    let by_int = |rng: &mut _, n, lo, hi, fmt: &dyn Fn(i64) -> String| -> Vec<String> {
        stratified(rng, n, lo, hi).into_iter().map(fmt).collect()
    };
    match w {
        Workload::Dashboard => vec![
            class(
                8,
                "avg_city",
                by_city(rng, 8, &|c| {
                    format!("SELECT AVG(time) FROM sessions WHERE city = '{c}'")
                }),
            ),
            class(
                8,
                "sum_city",
                by_city(rng, 8, &|c| {
                    format!("SELECT SUM(bitrate) FROM sessions WHERE city = '{c}'")
                }),
            ),
            class(
                8,
                "count_city",
                by_city(rng, 8, &|c| {
                    format!("SELECT COUNT(*) FROM sessions WHERE city = '{c}'")
                }),
            ),
            class(
                12,
                "avg_age",
                by_int(rng, 12, 90, 365, &|k| {
                    format!("SELECT AVG(latency_ms) FROM events WHERE age_days < {k}")
                }),
            ),
            class(
                8,
                "avg_dwell_age",
                by_int(rng, 8, 90, 365, &|k| {
                    format!("SELECT AVG(dwell_frac) FROM events WHERE age_days < {k}")
                }),
            ),
            class(
                8,
                "sum_age",
                by_int(rng, 8, 90, 365, &|k| {
                    format!("SELECT SUM(score) FROM events WHERE age_days < {k}")
                }),
            ),
            class(
                8,
                "count_age",
                by_int(rng, 8, 90, 365, &|k| {
                    format!("SELECT COUNT(*) FROM events WHERE age_days < {k}")
                }),
            ),
            // One distinct query, refreshed often. It always falls back
            // and is the slowest template, so with a seventh of the slots
            // the 90th percentile lands inside it rather than on the edge
            // between it and the next-slowest queries.
            class(
                10,
                "group_country",
                vec!["SELECT country, AVG(latency_ms) FROM events GROUP BY country".to_string()],
            ),
        ],
        // Predicates here keep most rows, so a seed moves which rows a
        // query reads more than how many: the cost of each class, and so
        // the latency quantiles, stay put across seeds.
        Workload::TailFallback => vec![
            class(3, "max_payload", {
                let mut v = vec!["SELECT MAX(payload_kb) FROM events".to_string()];
                v.extend(by_int(rng, 3, 0, 30, &|k| {
                    format!("SELECT MAX(payload_kb) FROM events WHERE age_days >= {k}")
                }));
                v
            }),
            class(6, "avg_payload", {
                let mut v = by_int(rng, 3, 0, 120, &|k| {
                    format!("SELECT AVG(payload_kb) FROM events WHERE age_days >= {k}")
                });
                v.extend(by_int(rng, 2, 20, 40, &|s| {
                    format!("SELECT AVG(payload_kb) FROM events WHERE score > {s}")
                }));
                v
            }),
            class(
                5,
                "sum_bytes_city",
                by_city(rng, 4, &|c| {
                    format!("SELECT SUM(bytes) FROM sessions WHERE city = '{c}'")
                }),
            ),
            // AVG(time) falls back for most cities, AVG(bitrate) mostly
            // keeps its bars: a partial fallback on every run.
            class(5, "group_city", {
                let mut v = vec![
                    "SELECT city, AVG(time), AVG(bitrate) FROM sessions GROUP BY city".to_string(),
                    "SELECT city, AVG(time), AVG(bitrate) FROM sessions WHERE is_mobile = true GROUP BY city"
                        .to_string(),
                    "SELECT city, AVG(time), AVG(bitrate) FROM sessions WHERE is_mobile = false GROUP BY city"
                        .to_string(),
                ];
                v.extend(by_int(rng, 3, 800, 1400, &|b| {
                    format!("SELECT city, AVG(time), AVG(bitrate) FROM sessions WHERE bitrate > {b} GROUP BY city")
                }));
                v
            }),
        ],
        Workload::ExactScan => vec![
            class(
                4,
                "avg_age",
                by_int(rng, 4, 0, 120, &|k| {
                    format!("SELECT AVG(latency_ms) FROM events WHERE age_days >= {k}")
                }),
            ),
            class(
                4,
                "sum_city",
                by_city(rng, 4, &|c| {
                    format!("SELECT SUM(bytes) FROM sessions WHERE city = '{c}'")
                }),
            ),
            class(
                4,
                "max_score",
                by_int(rng, 4, 20, 40, &|s| {
                    format!("SELECT MAX(payload_kb) FROM events WHERE score > {s}")
                }),
            ),
            class(
                3,
                "group_country",
                by_int(rng, 3, 0, 120, &|k| {
                    format!("SELECT country, AVG(wait_s) FROM events WHERE age_days >= {k} GROUP BY country")
                }),
            ),
            class(
                2,
                "group_city",
                vec![
                    "SELECT city, SUM(time) FROM sessions WHERE is_mobile = true GROUP BY city"
                        .to_string(),
                    "SELECT city, SUM(time) FROM sessions WHERE is_mobile = false GROUP BY city"
                        .to_string(),
                ],
            ),
        ],
    }
}

/// The `_telemetry.*` queries the dashboard interleaves, in rotation.
const TELEMETRY_SQL: [&str; 3] = [
    "SELECT COUNT(*) FROM _telemetry.queries",
    "SELECT AVG(wall_ms) FROM _telemetry.queries",
    "SELECT stage, AVG(wall_ms) FROM _telemetry.spans GROUP BY stage",
];

/// The seeded pool and a `len`-query stream over it. The stream is a run
/// of blocks; each block holds every class its number of slots, in a
/// seeded order, and each class serves its queries round-robin, so the
/// mix is the same for every seed and run length. On the dashboard every
/// 25th query reads `_telemetry.*` instead.
pub fn query_plan(w: Workload, seed: u64, len: usize) -> QueryPlan {
    let mut pool: Vec<Query> = Vec::new();
    let mut members: Vec<std::ops::Range<usize>> = Vec::new();
    let mut block: Vec<usize> = Vec::new();
    for c in classes(w, seed) {
        let start = pool.len();
        pool.extend(c.queries);
        block.extend(std::iter::repeat_n(members.len(), c.slots));
        members.push(start..pool.len());
    }
    let telemetry_start = pool.len();
    if w.telemetry() {
        pool.extend(TELEMETRY_SQL.iter().map(|sql| Query {
            sql: sql.to_string(),
            kind: "telemetry",
            telemetry: true,
        }));
    }
    let mut rng = rng_from_seed(SeedStream::new(seed).seed(10));
    let mut served = vec![0usize; members.len()];
    let mut order: Vec<usize> = Vec::new();
    let mut stream = Vec::with_capacity(len);
    for i in 0..len {
        if w.telemetry() && (i + 1) % TELEMETRY_EVERY == 0 {
            stream.push(telemetry_start + (i / TELEMETRY_EVERY) % TELEMETRY_SQL.len());
            continue;
        }
        if order.is_empty() {
            order = block.clone();
            // Fisher-Yates; the block is consumed from the back.
            for j in (1..order.len()).rev() {
                order.swap(j, rng.random_range(0..j + 1));
            }
        }
        let c = order.pop().expect("a refilled block is non-empty");
        let range = &members[c];
        stream.push(range.start + served[c] % range.len());
        served[c] += 1;
    }
    QueryPlan { pool, stream }
}
