//! The correctness gate: the exact sequence of processed events,
//! registrations and deregistrations is recorded during the run and replayed
//! afterwards — outside every timed interval — into
//! [`BruteForceOracle`], which shares no ITA code. Results read from the
//! engine during the run are compared against the oracle's at the same point
//! of the sequence with the repository's `validate` helpers.

use std::collections::BTreeMap;

use cts_core::validate::{compare_to_snapshot, DEFAULT_TOLERANCE};
use cts_core::{BruteForceOracle, Engine, RankedDocument};
use cts_index::{DocId, QueryId};

use crate::inputs::{window, Docs, Queries};

/// One recorded operation, in the order the engine applied it.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// The engine processed this document (documents are regenerated from
    /// the seed on replay, so only the id is kept).
    Event(DocId),
    /// The engine registered query number `query` of the seed's sequence
    /// and named it `id`.
    Register { id: QueryId, query: usize },
    /// The engine removed `id`.
    Deregister(QueryId),
    /// The engine reported `results` for `id` at this point.
    Check {
        id: QueryId,
        results: Vec<RankedDocument>,
    },
}

/// The recorded operation sequence of one run.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    ops: Vec<Op>,
}

/// What a successful replay covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReport {
    /// Events replayed into the oracle.
    pub events: usize,
    /// Result lists compared.
    pub checks: usize,
}

impl OpLog {
    /// Records a processed event.
    pub fn event(&mut self, doc: DocId) {
        self.ops.push(Op::Event(doc));
    }

    /// Records a registration of query number `query` under `id`.
    pub fn register(&mut self, id: QueryId, query: usize) {
        self.ops.push(Op::Register { id, query });
    }

    /// Records a deregistration.
    pub fn deregister(&mut self, id: QueryId) {
        self.ops.push(Op::Deregister(id));
    }

    /// Records the results the engine reported for `id` at this point.
    pub fn check(&mut self, id: QueryId, results: Vec<RankedDocument>) {
        self.ops.push(Op::Check { id, results });
    }

    /// Replays the log into a fresh oracle over the seed's inputs and
    /// compares every recorded result list. Any divergence — or a log the
    /// oracle cannot follow — is an error describing the first mismatch.
    pub fn replay(&self, seed: u64) -> Result<GateReport, String> {
        let mut oracle = BruteForceOracle::new(window());
        let mut docs = Docs::new(seed);
        let mut queries = Queries::new(seed);
        let mut ids: BTreeMap<QueryId, QueryId> = BTreeMap::new();
        let mut next_doc = 0u64;
        let mut report = GateReport {
            events: 0,
            checks: 0,
        };
        for op in &self.ops {
            match op {
                Op::Event(doc) => {
                    if doc.0 < next_doc {
                        return Err(format!("{doc} processed out of stream order"));
                    }
                    next_doc = doc.0 + 1;
                    oracle.process_document(docs.seek(*doc));
                    report.events += 1;
                }
                Op::Register { id, query } => {
                    let oracle_id = oracle.register(queries.get(*query).clone());
                    if ids.insert(*id, oracle_id).is_some() {
                        return Err(format!("engine reused live query id {id}"));
                    }
                }
                Op::Deregister(id) => {
                    let oracle_id = ids
                        .remove(id)
                        .ok_or_else(|| format!("engine removed unknown query {id}"))?;
                    oracle.deregister(oracle_id);
                }
                Op::Check { id, results } => {
                    let oracle_id = *ids
                        .get(id)
                        .ok_or_else(|| format!("results read for unknown query {id}"))?;
                    compare_to_snapshot(
                        "engine",
                        std::slice::from_ref(results),
                        &oracle,
                        &[oracle_id],
                        DEFAULT_TOLERANCE,
                    )
                    .map_err(|divergence| format!("engine query {id}: {divergence}"))?;
                    report.checks += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::{ItaConfig, ItaEngine};

    /// Drives a real engine over a short prefix of the seed's inputs.
    fn recorded_run(seed: u64) -> (OpLog, ItaEngine) {
        let mut engine = ItaEngine::new(window(), ItaConfig::default());
        let mut docs = Docs::new(seed);
        let mut queries = Queries::new(seed);
        let mut log = OpLog::default();
        for i in 0..3 {
            let id = engine.register(queries.get(i).clone());
            log.register(id, i);
        }
        for doc in docs.take(40) {
            log.event(doc.id);
            engine.process_document(doc);
        }
        engine.deregister(QueryId(1));
        log.deregister(QueryId(1));
        for id in [QueryId(0), QueryId(2)] {
            log.check(id, engine.current_results(id));
        }
        (log, engine)
    }

    #[test]
    fn an_exact_engine_passes_the_gate() {
        let (log, _) = recorded_run(5);
        assert_eq!(
            log.replay(5),
            Ok(GateReport {
                events: 40,
                checks: 2
            })
        );
    }

    #[test]
    fn a_wrong_result_fails_the_gate() {
        let (mut log, engine) = recorded_run(5);
        let mut results = engine.current_results(QueryId(0));
        if results.is_empty() {
            results.push(RankedDocument {
                doc: DocId(0),
                score: 1.0,
            });
        } else {
            results[0].score += 1e-3;
        }
        log.check(QueryId(0), results);
        assert!(log.replay(5).unwrap_err().contains("diverge"));
    }

    #[test]
    fn a_log_the_oracle_cannot_follow_fails_the_gate() {
        let (mut log, _) = recorded_run(5);
        log.event(DocId(3));
        assert!(log.replay(5).unwrap_err().contains("out of stream order"));
        let (mut log, _) = recorded_run(5);
        log.check(QueryId(1), Vec::new());
        assert!(log.replay(5).unwrap_err().contains("unknown query"));
    }
}
