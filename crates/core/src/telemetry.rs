//! The per-query telemetry pass.
//!
//! Four observers watch a session: the accuracy auditor, the SLO engine
//! with its flight recorder, the continuous profiler and the
//! introspection pipeline. [`Telemetry`] owns whichever of them the
//! [`SessionConfig`] switches on, and the session hands it each query
//! at two points: [`Telemetry::after_audit`] once an audit replay has
//! produced truth, and [`Telemetry::after_query`] once the answer is
//! final. Each entry point builds its event once — the workload class
//! per observer ([`QueryTags`]), the audit scores, the operator profile
//! — and passes it to the enabled observers in a fixed order (DESIGN
//! §16, "Telemetry pass order"). Every alert is an [`Alarm`]: it freezes
//! the flight recorder through [`Telemetry::dump`] and lands in
//! `_telemetry.slo_alerts` through [`Telemetry::fold_rows`].

use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::Duration;

use aqp_audit::{AuditConfig, AuditReport, AuditScore, AuditedAggregate, Auditor, QueryAudit};
use aqp_exec::result::ApproxResult;
use aqp_introspect::{Introspector, QueryRecord};
use aqp_obs::{name, FlightRecorder, ObsHandle, Timestamp};
use aqp_prof::contprof::{ContProfConfig, CumulativeProfile};
use aqp_prof::OpProfile;
use aqp_slo::{SloAlert, SloEngine, SloReport};
use aqp_storage::Catalog;
use parking_lot::Mutex;

use crate::answer::{AnswerMode, AqpAnswer};
use crate::session::SessionConfig;
use crate::Result;

/// The SLO engine plus the flight recorder its alerts dump.
struct Slo {
    engine: SloEngine,
    recorder: FlightRecorder,
}

/// The continuous profiler's routing plus the fleet-cumulative profile
/// every query folds into.
struct ContProf {
    config: ContProfConfig,
    cumulative: Mutex<CumulativeProfile>,
}

/// The session's observers; each is constructed only when its
/// `SessionConfig` field is set, so a disabled observer registers no
/// metrics and costs nothing.
pub(crate) struct Telemetry {
    obs: ObsHandle,
    auditor: Option<Auditor>,
    slo: Option<Slo>,
    contprof: Option<ContProf>,
    introspect: Option<Introspector>,
}

/// One query as the observers see it: its SQL and the workload class
/// each enabled observer files it under, classified once.
pub(crate) struct QueryTags<'a> {
    pub(crate) sql: &'a str,
    slo_class: &'a str,
    contprof_class: &'a str,
    /// The introspection class; `None` when the query's telemetry is not
    /// folded (introspection off, or the recursion guard excludes it).
    fold_class: Option<&'a str>,
}

/// An alert on its way to the flight recorder and
/// `_telemetry.slo_alerts`.
enum Alarm<'a> {
    /// An SLO burn-rate alert and what latched it (`latency` or
    /// `audit_score`).
    Slo(&'a SloAlert, &'static str),
    /// An audit-window coverage alert on a query of this SLO class.
    Audit(&'a aqp_audit::Alert, &'a str),
    /// A degraded execution falling back to exact truth: a dump, no row.
    Degraded,
}

impl Alarm<'_> {
    /// `(objective, severity, trigger)` of its `_telemetry.slo_alerts`
    /// row.
    fn row(&self) -> Option<(&str, &str, &str)> {
        match self {
            Alarm::Slo(a, trigger) => Some((&a.objective, a.severity.as_str(), trigger)),
            Alarm::Audit(a, _) => Some((&a.key, "warn", "audit")),
            Alarm::Degraded => None,
        }
    }
}

impl Telemetry {
    /// Construct the observers `config` switches on.
    pub(crate) fn new(config: &SessionConfig) -> Self {
        let obs = &config.obs;
        Telemetry {
            auditor: config.audit.clone().map(|cfg| Auditor::new(cfg, obs)),
            slo: config.slo.clone().map(|cfg| Slo {
                recorder: FlightRecorder::new(cfg.recorder.clone(), &obs.metrics),
                engine: SloEngine::new(cfg, obs),
            }),
            contprof: config.contprof.clone().map(|config| ContProf {
                config,
                cumulative: Mutex::new(CumulativeProfile::new()),
            }),
            introspect: config.introspect.clone().map(|cfg| Introspector::new(cfg, obs)),
            obs: obs.clone(),
        }
    }

    pub(crate) fn audit_report(&self) -> Option<AuditReport> {
        self.auditor.as_ref().map(Auditor::report)
    }

    pub(crate) fn slo_report(&self) -> Option<SloReport> {
        self.slo.as_ref().map(|s| s.engine.report())
    }

    pub(crate) fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.slo.as_ref().map(|s| &s.recorder)
    }

    pub(crate) fn cumulative_profile(&self) -> Option<CumulativeProfile> {
        self.contprof.as_ref().map(|cp| cp.cumulative.lock().clone())
    }

    /// Before a query over the `_telemetry` namespace runs, materialize
    /// every table that changed since the last sync, so its answer sees
    /// current data.
    pub(crate) fn sync(&self, sql: &str, catalog: &Catalog) -> Result<()> {
        if let Some(intr) = &self.introspect {
            if intr.is_introspection_query(sql) {
                intr.count_served();
                intr.sync_into(catalog)?;
            }
        }
        Ok(())
    }

    /// Classify `sql` once for every enabled observer.
    pub(crate) fn tag<'a>(&'a self, sql: &'a str) -> QueryTags<'a> {
        QueryTags {
            sql,
            slo_class: self.slo.as_ref().map_or("", |s| s.engine.config().classes.classify(sql)),
            contprof_class: self.contprof.as_ref().map_or("", |cp| cp.config.classify(sql)),
            fold_class: self
                .introspect
                .as_ref()
                .filter(|intr| intr.should_fold(sql))
                .map(|intr| intr.config().classes.classify(sql)),
        }
    }

    /// The auditor's decision on one completed approximate query: its
    /// audit ordinal when the deterministic sampler selects it, `None`
    /// when it does not or auditing is off.
    pub(crate) fn audit_ordinal(&self) -> Option<u64> {
        self.auditor.as_ref()?.should_audit()
    }

    /// Entry point 1: an audit replay produced `truth` for `approx`.
    /// Pair and score the aggregates once, then hand them to
    /// introspection, the auditor and the SLO engine, in that order.
    /// Audit-window alerts latch before SLO evaluation, so their rows
    /// fold ahead of every dump; SLO alerts fold after their dumps.
    pub(crate) fn after_audit(
        &self,
        tags: &QueryTags<'_>,
        ordinal: u64,
        replay_ms: f64,
        approx: &ApproxResult,
        truth: &[(String, Vec<f64>)],
    ) {
        let Some(auditor) = &self.auditor else { return };
        let aggregates = audited_aggregates(auditor.config(), approx, truth);
        let scores: Vec<AuditScore> = aggregates.iter().map(aqp_audit::score).collect();
        if let (Some(intr), Some(class)) = (&self.introspect, tags.fold_class) {
            intr.fold_audit(class, ordinal, &aggregates, &scores);
        }
        let audit_alerts =
            auditor.ingest(QueryAudit { ordinal, sql: tags.sql.to_string(), replay_ms, aggregates });
        let audit_alarms = || audit_alerts.iter().map(|a| Alarm::Audit(a, tags.slo_class));
        self.fold_rows(tags, None, audit_alarms());
        let Some(slo) = &self.slo else { return };
        self.timed(name::SLO_EVAL_MS, |now| {
            let (alerts, _drift) = slo.engine.observe_audit(tags.slo_class, &scores, now);
            let slo_alarms = || alerts.iter().map(|a| Alarm::Slo(a, "audit_score"));
            for alarm in audit_alarms() {
                self.dump(slo, &alarm);
            }
            for alarm in slo_alarms() {
                self.dump(slo, &alarm);
            }
            self.fold_rows(tags, None, slo_alarms());
        });
    }

    /// Injected faults lost more of a sample than the recovery policy
    /// tolerates and the query falls back to exact truth: freeze the
    /// evidence.
    pub(crate) fn degraded(&self) {
        if let Some(slo) = &self.slo {
            self.dump(slo, &Alarm::Degraded);
        }
    }

    /// Entry point 2: the query finished after `elapsed`. Hand it to
    /// the continuous profiler, the SLO engine and introspection, in
    /// that order, building its operator profile at most once. Latency
    /// alerts dump inside SLO evaluation and fold after their query's
    /// own rows, stamped with its ordinal.
    pub(crate) fn after_query(
        &self,
        tags: &QueryTags<'_>,
        elapsed: Duration,
        answer: &Result<AqpAnswer>,
    ) {
        let answer = answer.as_ref().ok();
        let built = OnceCell::new();
        if let (Some(cp), Some(a)) = (&self.contprof, answer) {
            self.timed(name::PROF_CONTPROF_EVAL_MS, |_| {
                if let Some(root) = profile(a, &built) {
                    cp.cumulative.lock().observe(tags.contprof_class, std::slice::from_ref(root));
                }
                let m = &self.obs.metrics;
                m.counter(name::PROF_CONTPROF_QUERIES).inc();
                if aqp_obs::alloc::enabled() {
                    let s = aqp_obs::alloc::stats();
                    m.gauge(name::MEM_ALLOCS).set(s.allocs as f64);
                    m.gauge(name::MEM_ALLOC_BYTES).set(s.alloc_bytes as f64);
                    m.gauge(name::MEM_CURRENT_BYTES).set(s.current_bytes as f64);
                    m.gauge(name::MEM_PEAK_BYTES).set(s.peak_bytes as f64);
                }
            });
        }
        let latency_alerts = match &self.slo {
            Some(slo) => self.timed(name::SLO_EVAL_MS, |now| {
                if let Some(a) = answer {
                    slo.recorder.record(a.trace.clone());
                }
                let alerts = slo.engine.observe_latency(tags.slo_class, elapsed, now);
                for alert in &alerts {
                    self.dump(slo, &Alarm::Slo(alert, "latency"));
                }
                alerts
            }),
            None => Vec::new(),
        };
        if let (Some(intr), Some(class), Some(a)) = (&self.introspect, tags.fold_class, answer) {
            self.timed(name::INTROSPECT_EVAL_MS, |_| {
                let query = intr.fold_query(&QueryRecord {
                    class,
                    trace: &a.trace,
                    mode: mode_label(a.mode),
                    wall_ms: elapsed.as_secs_f64() * 1e3,
                    sample_rows: a.sample_rows as u64,
                    population_rows: a.population_rows as u64,
                    groups: a.groups.len() as u64,
                    fell_back: a.fell_back,
                    degraded: a.degraded.is_some(),
                    profile: profile(a, &built),
                });
                let alarms = latency_alerts.iter().map(|a| Alarm::Slo(a, "latency"));
                self.fold_rows(tags, Some(query), alarms);
            });
        }
    }

    /// Freeze the flight recorder for one alarm, with a metrics snapshot
    /// taken now.
    fn dump(&self, slo: &Slo, alarm: &Alarm<'_>) {
        let (reason, context) = match alarm {
            Alarm::Slo(a, trigger) => (
                format!("slo:{}:{}", a.severity.as_str(), a.objective),
                vec![
                    ("class", a.class.as_str()),
                    ("objective", a.objective.as_str()),
                    ("severity", a.severity.as_str()),
                    ("trigger", trigger),
                ],
            ),
            Alarm::Audit(a, class) => (
                format!("audit:{}", a.key),
                vec![("class", *class), ("trigger", "audit"), ("alert", a.key.as_str())],
            ),
            Alarm::Degraded => {
                ("exec:degraded".to_string(), vec![("trigger", "degraded_exact_fallback")])
            }
        };
        slo.recorder.dump_with_context(&reason, &self.obs.metrics.snapshot(), &context);
    }

    /// Fold one `_telemetry.slo_alerts` row per alarm, stamped with
    /// `query` (`None`: the upcoming query ordinal).
    fn fold_rows<'a>(
        &self,
        tags: &QueryTags<'_>,
        query: Option<u64>,
        alarms: impl Iterator<Item = Alarm<'a>>,
    ) {
        let (Some(intr), Some(class)) = (&self.introspect, tags.fold_class) else { return };
        for alarm in alarms {
            if let Some((objective, severity, trigger)) = alarm.row() {
                intr.fold_slo_alert(class, query, objective, severity, trigger);
            }
        }
    }

    /// Run one observer's evaluation and record its wall time on
    /// `histogram`; `f` receives the start time.
    fn timed<T>(&self, histogram: &str, f: impl FnOnce(Timestamp) -> T) -> T {
        let started = self.obs.clock.now();
        let out = f(started);
        let ms = self.obs.clock.now().duration_since(started).as_secs_f64() * 1e3;
        self.obs.metrics.histogram(histogram).record_ms(ms);
        out
    }
}

/// The answer's operator profile: the EXPLAIN profile when it carries
/// one, else the one built from its trace on first use.
fn profile<'a>(a: &'a AqpAnswer, built: &'a OnceCell<Option<OpProfile>>) -> Option<&'a OpProfile> {
    a.profile.as_ref().or_else(|| built.get_or_init(|| OpProfile::from_trace(&a.trace)).as_ref())
}

/// Pair every approximate group-aggregate with its replayed truth;
/// groups the replay did not produce are skipped.
fn audited_aggregates(
    cfg: &AuditConfig,
    approx: &ApproxResult,
    truth: &[(String, Vec<f64>)],
) -> Vec<AuditedAggregate> {
    let truth_index: HashMap<&str, &Vec<f64>> =
        truth.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let mut aggregates = Vec::new();
    for g in &approx.groups {
        let Some(vals) = truth_index.get(g.key.as_str()) else { continue };
        for (ai, a) in g.aggs.iter().enumerate() {
            let Some(&truth) = vals.get(ai) else { continue };
            let (agg, column) = split_agg_name(&a.name);
            aggregates.push(AuditedAggregate {
                agg: agg.to_string(),
                column: column.to_string(),
                family: cfg.family_of(column).to_string(),
                estimate: a.estimate,
                ci: a.ci,
                diagnostic_accepted: a.diagnostic.as_ref().map(|d| d.accepted),
                truth,
            });
        }
    }
    aggregates
}

/// Split a display name like `AVG(time)` into `("AVG", "time")`
/// (`COUNT(*)` → `("COUNT", "*")`; names without parens keep an empty
/// column).
fn split_agg_name(name: &str) -> (&str, &str) {
    match name.split_once('(') {
        Some((f, rest)) => (f, rest.strip_suffix(')').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// The `_telemetry.queries.mode` label of an answer mode.
fn mode_label(mode: AnswerMode) -> &'static str {
    match mode {
        AnswerMode::Approximate => "approximate",
        AnswerMode::ApproximateUnchecked => "approximate_unchecked",
        AnswerMode::ExactFallback => "exact_fallback",
        AnswerMode::PartialFallback => "partial_fallback",
        AnswerMode::Exact => "exact",
    }
}
