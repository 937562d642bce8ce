//! The fold-in pipeline: per-query telemetry → reservoir rows →
//! catalog-registered columnar tables.
//!
//! [`Introspector`] is owned by the session's telemetry pass. After
//! every non-telemetry query it calls [`Introspector::fold_query`] with
//! the finished trace and answer facts; before executing a query that
//! references the `_telemetry` namespace it calls
//! [`Introspector::sync_into`], which re-materializes every table whose
//! reservoir changed since the last sync and rebuilds its uniform
//! sample — so the approximate path (CIs + diagnostics) engages on ops
//! data exactly as it does on user data.

use std::sync::Arc;

use aqp_audit::score::{AuditScore, AuditedAggregate};
use aqp_obs::{name, Counter, MetricsRegistry, ObsHandle, QueryTrace};
use aqp_prof::OpProfile;
use aqp_stats::rng::SeedStream;
use aqp_storage::{Catalog, SamplingStrategy, StorageError};
use parking_lot::Mutex;

use crate::config::IntrospectConfig;
use crate::tables::{Cell, TelemetryTable, TABLE_AUDIT, TABLE_FAULTS, TABLE_METRICS, TABLE_NAMES,
    TABLE_OPS, TABLE_QUERIES, TABLE_SLO_ALERTS, TABLE_SPANS};

/// Everything the session knows about one finished query, borrowed for
/// the duration of the fold.
#[derive(Debug)]
pub struct QueryRecord<'a> {
    /// The query's workload class under [`IntrospectConfig::classes`].
    pub class: &'a str,
    /// The full lifecycle trace.
    pub trace: &'a QueryTrace,
    /// Answer mode label (`approximate`, `exact`, `exact_fallback`, …).
    pub mode: &'a str,
    /// End-to-end wall time on the session clock, milliseconds.
    pub wall_ms: f64,
    /// Rows of the sample the answer ran on (0 for exact scans).
    pub sample_rows: u64,
    /// Rows of the full table.
    pub population_rows: u64,
    /// Result groups produced.
    pub groups: u64,
    /// Whether the diagnostic forced an exact (or partial) fallback.
    pub fell_back: bool,
    /// Whether fault losses degraded the sample (widened CIs).
    pub degraded: bool,
    /// The per-query operator profile, when one was assembled.
    pub profile: Option<&'a OpProfile>,
}

struct State {
    tables: Vec<TelemetryTable>,
    /// Queries folded so far; doubles as the `query` ordinal column.
    folded: u64,
    /// Per-table reservoir sequence at the last catalog sync, used to
    /// skip re-materializing unchanged tables.
    synced_seq: Vec<Option<u64>>,
}

impl State {
    /// Offer one row to `table`'s reservoir; returns how many rows the
    /// reservoir dropped to make room.
    fn offer(&mut self, table: &str, row: Vec<Cell>) -> u64 {
        let reservoir = &mut self.tables[index_of(table)].reservoir;
        let before = reservoir.dropped();
        reservoir.offer(row);
        reservoir.dropped() - before
    }
}

/// The in-process introspection pipeline (see the module docs).
pub struct Introspector {
    cfg: IntrospectConfig,
    registry: Arc<MetricsRegistry>,
    rows_ingested: Counter,
    rows_dropped: Counter,
    queries_folded: Counter,
    queries_served: Counter,
    syncs: Counter,
    state: Mutex<State>,
}

impl std::fmt::Debug for Introspector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Introspector").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl Introspector {
    /// Build the pipeline: one seeded reservoir per `_telemetry.*`
    /// table, metrics registered on `obs` (only now — a session without
    /// introspection never registers the `aqp.introspect.*` family).
    pub fn new(cfg: IntrospectConfig, obs: &ObsHandle) -> Self {
        let seeds = SeedStream::new(cfg.seed);
        let tables = TABLE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| TelemetryTable::new(name, cfg.budget_rows, seeds.seed(i as u64)))
            .collect::<Vec<_>>();
        let synced_seq = vec![None; tables.len()];
        let m = &obs.metrics;
        Introspector {
            rows_ingested: m.counter(name::INTROSPECT_ROWS_INGESTED),
            rows_dropped: m.counter(name::INTROSPECT_ROWS_DROPPED),
            queries_folded: m.counter(name::INTROSPECT_QUERIES_FOLDED),
            queries_served: m.counter(name::INTROSPECT_QUERIES_SERVED),
            syncs: m.counter(name::INTROSPECT_SYNCS),
            registry: Arc::clone(&obs.metrics),
            cfg,
            state: Mutex::new(State { tables, folded: 0, synced_seq }),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &IntrospectConfig {
        &self.cfg
    }

    /// Does `sql` read the reserved telemetry namespace?
    pub fn is_introspection_query(&self, sql: &str) -> bool {
        sql.contains("_telemetry.")
    }

    /// The recursion guard: should this query's telemetry fold into the
    /// tables? Non-telemetry queries always fold; telemetry queries
    /// fold only when [`IntrospectConfig::allow_recursive`] opted in.
    pub fn should_fold(&self, sql: &str) -> bool {
        self.cfg.allow_recursive || !self.is_introspection_query(sql)
    }

    /// Count one served introspection query
    /// (`aqp.introspect.queries_served`).
    pub fn count_served(&self) {
        self.queries_served.inc();
    }

    /// Fold one finished query's telemetry into the tables: a
    /// `_telemetry.queries` row, one `_telemetry.spans` row per trace
    /// span, fault events, operator rows, and (every `metrics_every`th
    /// fold) a point-in-time metrics snapshot. Returns the query's
    /// ordinal, the `query` column of its rows.
    pub fn fold_query(&self, rec: &QueryRecord<'_>) -> u64 {
        let class = rec.class.to_string();
        let mut state = self.state.lock();
        state.folded += 1;
        let qid = state.folded as i64;
        // Snapshot before taking the mutable table borrow; the sample
        // lags this query's own fold by design (point-in-time).
        let snap = (self.cfg.metrics_every > 0 && state.folded.is_multiple_of(self.cfg.metrics_every))
            .then(|| self.registry.snapshot());
        let mut ingested = 0u64;
        let mut dropped = 0u64;
        {
            let mut offer = |table: &str, row: Vec<Cell>| {
                ingested += 1;
                dropped += state.offer(table, row);
            };

            offer(
                TABLE_QUERIES,
                vec![
                    Cell::Int(qid),
                    Cell::Str(class.clone()),
                    Cell::Str(rec.mode.to_string()),
                    Cell::Float(rec.wall_ms),
                    Cell::Int(rec.sample_rows as i64),
                    Cell::Int(rec.population_rows as i64),
                    Cell::Int(rec.groups as i64),
                    Cell::Bool(rec.fell_back),
                    Cell::Bool(rec.degraded),
                ],
            );

            for (i, span) in rec.trace.spans.iter().enumerate() {
                let (stage, depth) = stage_of(rec.trace, i);
                let wall_ms = span.duration().as_secs_f64() * 1e3;
                offer(
                    TABLE_SPANS,
                    vec![
                        Cell::Int(qid),
                        Cell::Str(class.clone()),
                        Cell::Str(span.name.clone()),
                        stage,
                        Cell::Int(depth),
                        Cell::Float(wall_ms),
                    ],
                );
                if let Some(kind) = fault_kind(&span.name) {
                    let task = span.attr("task").and_then(|v| v.parse::<i64>().ok());
                    let attempt = span.attr("attempt").and_then(|v| v.parse::<i64>().ok());
                    offer(
                        TABLE_FAULTS,
                        vec![
                            Cell::Int(qid),
                            Cell::Str(class.clone()),
                            Cell::Str(kind.to_string()),
                            Cell::Int(task.unwrap_or(-1)),
                            Cell::Int(attempt.unwrap_or(-1)),
                            Cell::Float(wall_ms),
                        ],
                    );
                }
            }

            if let Some(profile) = rec.profile {
                let mut stack = vec![(profile, String::new())];
                while let Some((node, prefix)) = stack.pop() {
                    let path = if prefix.is_empty() {
                        node.name.clone()
                    } else {
                        format!("{prefix};{}", node.name)
                    };
                    offer(
                        TABLE_OPS,
                        vec![
                            Cell::Int(qid),
                            Cell::Str(class.clone()),
                            Cell::Str(node.name.clone()),
                            Cell::Str(path.clone()),
                            Cell::Float(node.wall.as_secs_f64() * 1e3),
                            Cell::Int(node.rows_out as i64),
                        ],
                    );
                    for child in &node.children {
                        stack.push((child, path.clone()));
                    }
                }
            }

            if let Some(snap) = &snap {
                for (metric, v) in &snap.counters {
                    offer(
                        TABLE_METRICS,
                        vec![
                            Cell::Int(qid),
                            Cell::Str(metric.clone()),
                            Cell::Str("counter".to_string()),
                            Cell::Float(*v as f64),
                        ],
                    );
                }
                for (metric, v) in &snap.gauges {
                    offer(
                        TABLE_METRICS,
                        vec![
                            Cell::Int(qid),
                            Cell::Str(metric.clone()),
                            Cell::Str("gauge".to_string()),
                            Cell::Float(*v),
                        ],
                    );
                }
                for (metric, h) in &snap.histograms {
                    offer(
                        TABLE_METRICS,
                        vec![
                            Cell::Int(qid),
                            Cell::Str(metric.clone()),
                            Cell::Str("histogram_count".to_string()),
                            Cell::Float(h.count as f64),
                        ],
                    );
                }
            }
        }
        drop(state);
        self.queries_folded.inc();
        self.count(ingested, dropped);
        qid as u64
    }

    /// Fold the scored results of one audit replay into
    /// `_telemetry.audit` — one row per audited group-aggregate (paired
    /// with its score), with nullable score columns so `AVG(covered)`
    /// is the coverage rate over scored results.
    pub fn fold_audit(
        &self,
        class: &str,
        ordinal: u64,
        aggregates: &[AuditedAggregate],
        scores: &[AuditScore],
    ) {
        let mut state = self.state.lock();
        let mut ingested = 0u64;
        let mut dropped = 0u64;
        for (a, s) in aggregates.iter().zip(scores) {
            let row = vec![
                Cell::Int(ordinal as i64),
                Cell::Str(class.to_string()),
                Cell::Str(a.agg.clone()),
                Cell::Str(a.column.clone()),
                Cell::Str(a.family.clone()),
                Cell::Float(a.estimate),
                Cell::Float(a.truth),
                opt_f64(s.rel_error),
                opt_f64(s.error_ratio),
                opt_f64(s.covered.map(|c| f64::from(u8::from(c)))),
                opt_f64(a.diagnostic_accepted.map(|c| f64::from(u8::from(c)))),
            ];
            ingested += 1;
            dropped += state.offer(TABLE_AUDIT, row);
        }
        drop(state);
        self.count(ingested, dropped);
    }

    /// Fold one alert into `_telemetry.slo_alerts`, stamped with query
    /// ordinal `query` — or, for an alert latched in the audit path
    /// before its query folds (`None`), with the upcoming ordinal.
    pub fn fold_slo_alert(
        &self,
        class: &str,
        query: Option<u64>,
        objective: &str,
        severity: &str,
        trigger: &str,
    ) {
        let mut state = self.state.lock();
        let qid = query.unwrap_or(state.folded + 1) as i64;
        let dropped = state.offer(
            TABLE_SLO_ALERTS,
            vec![
                Cell::Int(qid),
                Cell::Str(class.to_string()),
                Cell::Str(objective.to_string()),
                Cell::Str(severity.to_string()),
                Cell::Str(trigger.to_string()),
            ],
        );
        drop(state);
        self.count(1, dropped);
    }

    /// Count rows offered to the reservoirs, and the rows they dropped.
    fn count(&self, ingested: u64, dropped: u64) {
        self.rows_ingested.add(ingested);
        if dropped > 0 {
            self.rows_dropped.add(dropped);
        }
    }

    /// Re-materialize every table whose reservoir changed since the
    /// last sync into `catalog` (drop + register, which also resets the
    /// table's samples) and rebuild a seeded uniform sample over it so
    /// the approximate path engages. Unchanged tables are left alone.
    pub fn sync_into(&self, catalog: &Catalog) -> Result<(), StorageError> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let mut synced_any = false;
        for (i, t) in state.tables.iter().enumerate() {
            let seq = t.reservoir.seq();
            if state.synced_seq[i] == Some(seq) && catalog.has_table(t.name) {
                continue;
            }
            let table = t.materialize(self.cfg.partitions)?;
            let rows = table.num_rows();
            // drop_table also clears the previous version's samples; a
            // missing table (first sync) is fine.
            let _ = catalog.drop_table(t.name);
            catalog.register_table(table)?;
            if rows >= self.cfg.min_rows_for_sampling.max(1) {
                let n = ((rows as f64 * self.cfg.sample_fraction).round() as usize)
                    .clamp(1, rows);
                // The sample must be a pure function of (seed, event
                // sequence) too: derive its rng from the table index
                // and the reservoir sequence of this materialization.
                let seeds = SeedStream::new(self.cfg.seed ^ 0x5EED_1A7B).derive(i as u64);
                let mut rng = seeds.rng(seq);
                let idx =
                    aqp_stats::sampling::without_replacement_indices(&mut rng, n, rows);
                let source = catalog.table(t.name)?;
                catalog.with_samples_mut(t.name, |set| {
                    set.add_from_indices(
                        &source,
                        &idx,
                        SamplingStrategy::WithoutReplacement,
                        seeds.seed(seq),
                        self.cfg.partitions.max(1),
                    )?;
                    Ok(())
                })?;
            }
            state.synced_seq[i] = Some(seq);
            synced_any = true;
        }
        if synced_any {
            self.syncs.inc();
        }
        Ok(())
    }
}

fn opt_f64(v: Option<f64>) -> Cell {
    match v {
        Some(v) => Cell::Float(v),
        None => Cell::Null,
    }
}

/// Position of a table name inside [`TABLE_NAMES`]; the names are
/// compile-time constants, so a miss is unreachable — 0 keeps the path
/// panic-free anyway.
fn index_of(name: &str) -> usize {
    TABLE_NAMES.iter().position(|n| *n == name).unwrap_or(0)
}

/// The root ancestor's name (the lifecycle stage) and depth of span `i`.
fn stage_of(trace: &QueryTrace, i: usize) -> (Cell, i64) {
    let mut depth = 0i64;
    let mut at = i;
    let mut hops = 0;
    while let Some(parent) = trace.spans.get(at).and_then(|s| s.parent) {
        at = parent;
        depth += 1;
        hops += 1;
        if hops > trace.spans.len() {
            break; // defensive: a parent cycle must not hang the fold
        }
    }
    let stage = trace.spans.get(at).map(|s| s.name.clone()).unwrap_or_default();
    (Cell::Str(stage), depth)
}

/// The fault-event kind of a span name (`fault:crash`, `retry:backoff`,
/// `speculative:clone`, …) — `None` for ordinary lifecycle spans.
fn fault_kind(span_name: &str) -> Option<&str> {
    if span_name.starts_with("fault:")
        || span_name.starts_with("retry:")
        || span_name.starts_with("speculative:")
    {
        Some(span_name)
    } else {
        None
    }
}
