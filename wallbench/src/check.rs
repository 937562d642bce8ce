//! The answer and determinism checks behind `correct_share`.
//!
//! Every distinct query gets an oracle from the exact executor during
//! set-up, and a reference answer from a separately built session with
//! the same seeds. Each answer of the measured stream must agree with
//! both: exact cells with the oracle, accepted approximate cells by
//! covering the truth within three half-widths, and every estimate and
//! CI bit for bit with the reference.

use std::collections::HashMap;
use std::fmt::Write as _;

use aqp_core::{AnswerMode, AqpAnswer, AqpSession};
use aqp_exec::{execute_exact, UdfRegistry};
use aqp_sql::{parse_query, plan_query, Query, TableRef};

use crate::workload::{Query as PoolQuery, THREADS};

/// Exact result rows: `(group key, one value per aggregate)`.
pub type Groups = Vec<(String, Vec<f64>)>;

/// An accepted approximate cell must lie within this many half-widths of
/// the truth.
const HALF_WIDTHS: f64 = 3.0;

/// Relative tolerance between an exact cell and the oracle.
const EXACT_RTOL: f64 = 1e-9;

pub fn leaf_table(query: &Query) -> String {
    match &query.from {
        TableRef::Table(t) => t.clone(),
        TableRef::Subquery(inner) => leaf_table(inner),
    }
}

/// The exact answer of `sql` over the session's registered tables,
/// through the executor's exact path.
pub fn oracle(session: &AqpSession, sql: &str) -> Result<Groups, String> {
    let query = parse_query(sql).map_err(|e| e.to_string())?;
    let table = session
        .catalog()
        .table(&leaf_table(&query))
        .map_err(|e| e.to_string())?;
    let plan = plan_query(&query, table.schema()).map_err(|e| e.to_string())?;
    let exact = execute_exact(&plan, &table, &UdfRegistry::default(), THREADS)
        .map_err(|e| e.to_string())?;
    Ok(exact.groups)
}

/// Bit pattern of an answer: mode, group keys, estimates and CIs.
pub fn fingerprint(answer: &AqpAnswer) -> String {
    let mut out = format!("{:?}", answer.mode);
    for g in &answer.groups {
        let _ = write!(out, "|{}", g.key);
        for a in &g.aggs {
            let _ = write!(out, ";{:016x}", a.estimate.to_bits());
            if let Some(ci) = &a.ci {
                let _ = write!(
                    out,
                    ",{:016x},{:016x},{:016x}",
                    ci.center.to_bits(),
                    ci.half_width.to_bits(),
                    ci.confidence.to_bits()
                );
            }
        }
    }
    out
}

fn same_exact(value: f64, truth: f64) -> bool {
    (value.is_nan() && truth.is_nan())
        || value == truth
        || (value - truth).abs() <= EXACT_RTOL * truth.abs().max(1.0)
}

/// Check an answer against the exact truth.
pub fn check_answer(answer: &AqpAnswer, truth: &Groups) -> Result<(), String> {
    let by_key: HashMap<&str, &Vec<f64>> = truth.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let approximate = matches!(
        answer.mode,
        AnswerMode::Approximate | AnswerMode::ApproximateUnchecked
    );
    // The sample may miss rare groups; every other mode answers the
    // exact group set.
    if !approximate && answer.groups.len() != truth.len() {
        return Err(format!(
            "{:?} answer has {} groups, exact has {}",
            answer.mode,
            answer.groups.len(),
            truth.len()
        ));
    }
    for g in &answer.groups {
        let Some(values) = by_key.get(g.key.as_str()) else {
            return Err(format!("group {:?} is not in the exact answer", g.key));
        };
        if g.aggs.len() != values.len() {
            return Err(format!(
                "group {:?}: {} cells, exact has {}",
                g.key,
                g.aggs.len(),
                values.len()
            ));
        }
        for (ai, (cell, &t)) in g.aggs.iter().zip(values.iter()).enumerate() {
            match (&cell.ci, answer.mode) {
                (Some(ci), mode) if mode != AnswerMode::Exact => {
                    if !(ci.center.is_finite() && ci.half_width.is_finite() && ci.half_width >= 0.0)
                    {
                        return Err(format!("group {:?} cell {ai}: non-finite CI {ci:?}", g.key));
                    }
                    let slack = HALF_WIDTHS * ci.half_width + EXACT_RTOL * t.abs().max(1.0);
                    if (cell.estimate - t).abs() > slack {
                        return Err(format!(
                            "group {:?} cell {ai}: estimate {} ± {} misses truth {t} by more than {HALF_WIDTHS} half-widths",
                            g.key, cell.estimate, ci.half_width
                        ));
                    }
                }
                (None, _) if approximate => {
                    return Err(format!(
                        "group {:?} cell {ai}: approximate cell without a CI",
                        g.key
                    ));
                }
                _ => {
                    if !same_exact(cell.estimate, t) {
                        return Err(format!(
                            "group {:?} cell {ai}: exact value {} differs from oracle {t}",
                            g.key, cell.estimate
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// `(reliable cells, all cells)` of an answer. A cell is reliable when it
/// carries an accepted error bar or its query ran exact by plan; cells
/// replaced by the exact fallback are not.
pub fn reliable_cells(answer: &AqpAnswer) -> (u64, u64) {
    let cells = answer.groups.iter().map(|g| g.aggs.len() as u64).sum();
    if answer.mode == AnswerMode::Exact {
        return (cells, cells);
    }
    let reliable = answer
        .groups
        .iter()
        .flat_map(|g| g.aggs.iter())
        .filter(|a| a.error_bars_reliable())
        .count() as u64;
    (reliable, cells)
}

/// Oracles and reference fingerprints for a pool, plus the running tally
/// of checked answers.
pub struct Verifier {
    oracles: HashMap<usize, Groups>,
    references: HashMap<usize, Result<String, String>>,
    pub attempted: u64,
    pub failed: u64,
    pub reliable: u64,
    pub cells: u64,
    printed: usize,
}

/// Failures printed in full; later ones are only counted.
const MAX_PRINTED: usize = 20;

impl Verifier {
    /// Compute the oracle and the reference answer of every
    /// non-telemetry pool query on `reference`, a session built only for
    /// this.
    pub fn new(pool: &[PoolQuery], reference: &AqpSession) -> Result<Verifier, String> {
        let mut oracles = HashMap::new();
        let mut references = HashMap::new();
        for (i, q) in pool.iter().enumerate().filter(|(_, q)| !q.telemetry) {
            let truth =
                oracle(reference, &q.sql).map_err(|e| format!("oracle for {}: {e}", q.sql))?;
            oracles.insert(i, truth);
            let fp = reference
                .execute(&q.sql)
                .map(|a| fingerprint(&a))
                .map_err(|e| e.to_string());
            references.insert(i, fp);
        }
        Ok(Verifier {
            oracles,
            references,
            attempted: 0,
            failed: 0,
            reliable: 0,
            cells: 0,
            printed: 0,
        })
    }

    fn fail(&mut self, sql: &str, why: &str) {
        self.failed += 1;
        if self.printed < MAX_PRINTED {
            eprintln!("FAILED  {sql}\n        {why}");
            self.printed += 1;
        }
    }

    /// Tally one executed query of pool entry `idx`; `Ok` answers are
    /// checked. Returns whether it passed.
    pub fn verify(
        &mut self,
        session: &AqpSession,
        idx: usize,
        q: &PoolQuery,
        result: &Result<AqpAnswer, String>,
    ) -> bool {
        self.attempted += 1;
        let answer = match result {
            Ok(a) => a,
            Err(e) => {
                self.fail(&q.sql, &format!("error: {e}"));
                return false;
            }
        };
        let checked = if q.telemetry {
            oracle(session, &q.sql).and_then(|truth| check_answer(answer, &truth))
        } else {
            let truth = &self.oracles[&idx];
            check_answer(answer, truth).and_then(|()| match &self.references[&idx] {
                Ok(fp) if *fp == fingerprint(answer) => Ok(()),
                Ok(_) => Err("estimates or CIs differ from the reference session's bits".into()),
                Err(e) => Err(format!("reference session failed: {e}")),
            })
        };
        if let Err(why) = checked {
            self.fail(&q.sql, &why);
            return false;
        }
        let (reliable, cells) = reliable_cells(answer);
        self.reliable += reliable;
        self.cells += cells;
        true
    }
}
