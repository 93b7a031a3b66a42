//! Per-layer metrics read from the counters the layers already export
//! (`EventOutcome`, `query_stats()`, `index_stats()`, `fault_stats()`),
//! shared by the three workloads.

use std::collections::BTreeMap;

use cts_core::{FaultStats, ItaQueryStats};
use cts_index::{IndexStats, QueryId};

use crate::report::Metrics;
use crate::stats::ratio;

/// Per-event ITA work, summed from `EventOutcome`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventWork {
    /// Events processed.
    pub events: u64,
    /// Sum of `queries_touched_by_arrival`.
    pub touched_arrival: u64,
    /// Sum of `queries_touched_by_expiration`.
    pub touched_expiration: u64,
    /// Sum of `results_changed`.
    pub results_changed: u64,
}

impl EventWork {
    /// Sets the `ita.*` metrics derived from event outcomes.
    pub fn set(&self, m: &mut Metrics) {
        let events = self.events as f64;
        let touched = (self.touched_arrival + self.touched_expiration) as f64;
        m.set(
            "ita.touched_arrival_per_event",
            ratio(self.touched_arrival as f64, events),
            format!("{} events", self.events),
        );
        m.set(
            "ita.touched_expiration_per_event",
            ratio(self.touched_expiration as f64, events),
            format!("{} events", self.events),
        );
        m.set(
            "ita.results_changed_per_event",
            ratio(self.results_changed as f64, events),
            format!("{} events", self.events),
        );
        m.set(
            "ita.change_ratio",
            ratio(self.results_changed as f64, touched),
            format!("{} changed of {touched} touched", self.results_changed),
        );
    }
}

/// A snapshot of `query_stats()` for a set of queries.
#[derive(Debug, Clone, Default)]
pub struct QuerySnapshot(BTreeMap<QueryId, ItaQueryStats>);

impl QuerySnapshot {
    /// Reads `stats` for every id in `ids` (unknown ids are skipped).
    pub fn take(ids: &[QueryId], stats: impl Fn(QueryId) -> Option<ItaQueryStats>) -> Self {
        Self(
            ids.iter()
                .filter_map(|&id| stats(id).map(|s| (id, s)))
                .collect(),
        )
    }

    /// Sets the `ita.*` metrics that come from `query_stats` deltas between
    /// `before` and this snapshot, over the queries present in both, per
    /// event of the interval.
    pub fn set_since(&self, before: &QuerySnapshot, events: u64, m: &mut Metrics) {
        let (mut postings, mut refills, mut rollups, mut queries) = (0u64, 0u64, 0u64, 0u64);
        for (id, after) in &self.0 {
            if let Some(b) = before.0.get(id) {
                postings += after.postings_examined - b.postings_examined;
                refills += after.refills - b.refills;
                rollups += after.rollups - b.rollups;
                queries += 1;
            }
        }
        if queries == 0 {
            let why = "no query lived through the whole interval";
            m.not_applicable("ita.postings_examined_per_event", why);
            m.not_applicable("ita.refills_per_event", why);
            m.not_applicable("ita.rollups_per_event", why);
        } else {
            let note = format!("{queries} queries over {events} events");
            let events = events as f64;
            m.set(
                "ita.postings_examined_per_event",
                ratio(postings as f64, events),
                note.clone(),
            );
            m.set(
                "ita.refills_per_event",
                ratio(refills as f64, events),
                note.clone(),
            );
            m.set("ita.rollups_per_event", ratio(rollups as f64, events), note);
        }
        let sizes: u64 = self.0.values().map(|s| s.result_set_size as u64).sum();
        m.set(
            "ita.result_set_mean",
            ratio(sizes as f64, self.0.len() as f64),
            format!("{} queries", self.0.len()),
        );
    }
}

/// Sets the `index.*` metrics from (per-shard) index statistics, summed.
pub fn set_index(stats: &[IndexStats], m: &mut Metrics) {
    let postings: usize = stats.iter().map(|s| s.postings).sum();
    let longest: usize = stats.iter().map(|s| s.longest_list).sum();
    let docs = stats.iter().map(|s| s.documents).max().unwrap_or(0);
    let note = format!("{} index(es), {docs} documents", stats.len());
    m.set("index.postings", postings as f64, note.clone());
    m.set(
        "index.postings_per_doc",
        ratio(postings as f64, docs as f64),
        note.clone(),
    );
    m.set("index.longest_list", longest as f64, note);
}

/// Sets the `fault.*` metrics (engines without fault tracking report 0).
pub fn set_faults(stats: Option<FaultStats>, m: &mut Metrics) {
    let note = if stats.is_some() {
        "fault_stats()"
    } else {
        "engine has no fault layer"
    };
    let stats = stats.unwrap_or_default();
    m.set("fault.faults", stats.faults as f64, note);
    m.set("fault.recoveries", stats.recoveries as f64, note);
}
