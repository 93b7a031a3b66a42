//! The Incremental Threshold Algorithm (paper §III).
//!
//! [`ItaEngine`] maintains, for every registered query `Q`:
//!
//! * a result set `R` ([`crate::ResultSet`]) holding the verified top-k
//!   **and** every other valid document lying above the query's search
//!   frontier (the paper's *unverified* documents);
//! * one *local threshold* `θ_{Q,t}` per query term, the impact weight down
//!   to which the threshold search has examined the inverted list `L_t`; and
//! * the *influence threshold* `τ = Σ_t w_{Q,t}·θ_{Q,t}`, an upper bound on
//!   the score of any document outside `R`.
//!
//! The local thresholds are mirrored into per-list [`ThresholdTree`]s so that
//! a stream event touches only the queries whose frontier it crosses:
//!
//! * **Registration** runs a threshold (TA-style) search down the query's
//!   inverted lists, stopping as soon as `S_k ≥ τ` — usually after reading a
//!   small prefix of each list.
//! * **Arrival** of document `d` probes, for every term `t` of `d`, the
//!   threshold tree of `L_t` for queries with `θ_{Q,t} ≤ w_{d,t}`. Only those
//!   queries score `d`; all others provably cannot have `d` in their top-k.
//!   When `d` enters a top-k, the freed slack (`S_k` grew, `τ` did not) is
//!   reclaimed by *rolling up* local thresholds to the preceding list entries
//!   and evicting unverified documents that lose all support — this is what
//!   keeps `R` small.
//! * **Expiration** probes the same trees; affected queries drop the expired
//!   document from `R`, and if it was in the top-k the threshold search
//!   *resumes* below the recorded thresholds (an incremental *refill*)
//!   instead of restarting from the top of the lists.
//!
//! The engine's per-query invariant, checked by the test suite, is exactly
//! the paper's: every valid document outside `R` scores at most
//! `τ ≤ S_k`, so the top-k inside `R` is the true top-k.
//!
//! Every list access above goes through the impact-list API of `cts_index`
//! (`iter_at_or_below`, `iter_weight_range`, `lowest_above`, …), which since
//! PR 3 is backed by *segmented* impact lists: descent cursors and range
//! probes transparently cross segment boundaries — including equal-weight
//! tie runs that a segment split leaves straddling two segments — while a
//! head-term arrival/expiration shifts at most one segment instead of a
//! window-length `Vec` tail. The engine code is layout-agnostic; the
//! `ita_brute_force_agreement_beyond_segment_capacity` test pins the
//! boundary behaviour at engine level.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cts_index::{
    DocId, Document, InvertedIndex, QueryId, SlidingWindow, TermArena, ThresholdTree, Timestamp,
};
use cts_text::{TermId, Weight};

use crate::engine::{Engine, EventOutcome};
use crate::query::ContinuousQuery;
use crate::result::{RankedDocument, ResultSet};
use crate::slab::QuerySlab;

/// Tuning knobs of the [`ItaEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItaConfig {
    /// Whether local thresholds are rolled up (and unverified documents
    /// evicted) when an arrival improves a query's top-k. Disabling roll-up
    /// leaves the algorithm correct but lets result sets grow monotonically
    /// between expirations — the ablation measured by `ablation_rollup`.
    pub enable_rollup: bool,
    /// Whether newly-live terms are admitted **lazily**: registration and
    /// migration mark them cold in the term-filtered index and the
    /// full-window backfill runs only when a threshold search or roll-up
    /// first probes the list (DESIGN.md §9). Disabling restores the eager
    /// backfill-on-register path — the `ablation_register` foil.
    pub lazy_registration: bool,
}

impl Default for ItaConfig {
    fn default() -> Self {
        Self {
            enable_rollup: true,
            lazy_registration: true,
        }
    }
}

/// A point-in-time snapshot of one query's ITA bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ItaQueryStats {
    /// Current size of the result set `R` (top-k plus unverified documents).
    pub result_set_size: usize,
    /// The current `k`-th best score `S_k` (0 when fewer than `k` results).
    pub kth_score: f64,
    /// The current influence threshold `τ = Σ_t w_{Q,t}·θ_{Q,t}`.
    pub influence_threshold: f64,
    /// Stream arrivals that crossed this query's frontier and were scored.
    pub arrivals_examined: u64,
    /// Expirations that crossed this query's frontier and were processed.
    pub expirations_examined: u64,
    /// Incremental refills performed after top-k expirations.
    pub refills: u64,
    /// Committed threshold roll-up steps.
    pub rollups: u64,
    /// Inverted-list postings scored by this query's threshold searches.
    pub postings_examined: u64,
}

/// Reference counts over the terms the engine's registered queries use, kept
/// dense by term id (interned small integers). Decides which composition
/// entries are filed into the engine's term-filtered inverted index.
#[derive(Debug, Clone, Default)]
struct TermRefCounts {
    counts: Vec<u32>,
}

impl TermRefCounts {
    /// Whether any registered query references `term`.
    #[inline]
    fn contains(&self, term: TermId) -> bool {
        self.counts
            .get(term.0 as usize)
            .is_some_and(|count| *count > 0)
    }

    /// Takes one reference on `term`; `true` when this is the first (the
    /// term just became live and its list must be backfilled).
    fn acquire(&mut self, term: TermId) -> bool {
        let slot = term.0 as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
        self.counts[slot] == 1
    }

    /// Drops one reference on `term`; `true` when it was the last (the term
    /// just died and its list can be retired).
    fn release(&mut self, term: TermId) -> bool {
        let count = &mut self.counts[term.0 as usize];
        debug_assert!(*count > 0, "release of unreferenced term {term}");
        *count -= 1;
        *count == 0
    }
}

/// A query's complete ITA state, packaged for migration between engines —
/// the payload of the sharded engine's skew rebalancer. Produced by
/// [`ItaEngine::extract_query`] and consumed by [`ItaEngine::install_query`];
/// it carries the query itself, its result set `R`, its local thresholds
/// `θ_{Q,t}` and its bookkeeping counters, so the receiving engine resumes
/// maintenance **exactly** where the sender stopped — no threshold search is
/// re-run, no result is recomputed, and every future event is processed
/// byte-identically to an engine that had hosted the query all along.
#[derive(Debug, Clone)]
pub struct QueryMigration {
    state: QueryState,
}

impl QueryMigration {
    /// The terms (with local thresholds) the migrated query watches —
    /// what the receiving shard must cover in its shadow index.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.state.thresholds.iter().map(|(term, _)| *term)
    }
}

/// Per-query mutable state.
#[derive(Debug, Clone)]
struct QueryState {
    query: ContinuousQuery,
    results: ResultSet,
    /// `⟨t, θ_{Q,t}⟩`, aligned with the query's term order.
    thresholds: Vec<(TermId, Weight)>,
    arrivals_examined: u64,
    expirations_examined: u64,
    refills: u64,
    rollups: u64,
    postings_examined: u64,
}

impl QueryState {
    fn tau(&self) -> f64 {
        self.thresholds
            .iter()
            .map(|(t, theta)| self.query.weight(*t).get() * theta.get())
            .sum()
    }
}

/// The paper's monitoring algorithm.
#[derive(Debug, Clone)]
pub struct ItaEngine {
    window: SlidingWindow,
    config: ItaConfig,
    index: InvertedIndex,
    /// One threshold tree per term that occurs in at least one query,
    /// in a dense term-id-indexed arena (terms are interned small integers).
    trees: TermArena<ThresholdTree>,
    queries: QuerySlab<QueryState>,
    /// Reused per-event buffer for the affected-query probe; kept on the
    /// engine so steady-state event processing allocates nothing.
    scratch: Vec<QueryId>,
    /// The index files postings only for terms referenced by at least one
    /// registered query.
    term_filter: TermRefCounts,
    next_query: u32,
    clock: Timestamp,
}

impl ItaEngine {
    /// Creates an engine with the given sliding-window policy. The inverted
    /// index is **term-filtered**: it files postings only for terms
    /// referenced by at least one registered query (registration backfills a
    /// new term's list from the stored window; deregistration retires lists
    /// whose last referencing query left). Every list a query's threshold
    /// search, roll-up or probe can touch is complete, while index
    /// maintenance skips the (large) majority of composition terms no query
    /// watches.
    pub fn new(window: SlidingWindow, config: ItaConfig) -> Self {
        Self {
            window,
            config,
            index: InvertedIndex::new(),
            trees: TermArena::new(),
            queries: QuerySlab::new(),
            scratch: Vec::new(),
            term_filter: TermRefCounts::default(),
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ItaConfig {
        self.config
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// A snapshot of `query`'s bookkeeping, if it is registered.
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let state = self.queries.get(query)?;
        Some(ItaQueryStats {
            result_set_size: state.results.len(),
            kth_score: state.results.kth_score(state.query.k()),
            influence_threshold: state.tau(),
            arrivals_examined: state.arrivals_examined,
            expirations_examined: state.expirations_examined,
            refills: state.refills,
            rollups: state.rollups,
            postings_examined: state.postings_examined,
        })
    }

    /// A point-in-time summary of the inverted index (documents, lists,
    /// postings). Exposed for the sweep harness and soak tests.
    pub fn index_stats(&self) -> cts_index::IndexStats {
        self.index.stats()
    }

    /// Impact entries filed by the registration-path backfills of this
    /// engine's index so far — the registration-cost regression counter (see
    /// [`cts_index::InvertedIndex::register_postings_touched`]).
    pub fn register_postings_touched(&self) -> u64 {
        self.index.register_postings_touched()
    }

    /// Number of index terms currently cold (live in the term filter but not
    /// yet materialised). Always 0 under eager registration.
    pub fn num_cold_terms(&self) -> usize {
        self.index.num_cold()
    }

    /// Iterates over the currently valid documents in arrival order.
    /// Exposed so validation harnesses (e.g. the paper-scale soak) can
    /// re-evaluate queries against the engine's own window without keeping a
    /// second copy of it.
    pub fn store_documents(&self) -> impl Iterator<Item = &Document> {
        self.index.store().iter()
    }

    /// The local threshold `θ_{Q,t}`, if `query` is registered and contains
    /// `term`. Exposed for tests and benchmarks.
    pub fn local_threshold(&self, query: QueryId, term: TermId) -> Option<Weight> {
        self.queries
            .get(query)?
            .thresholds
            .iter()
            .find(|(t, _)| *t == term)
            .map(|(_, theta)| *theta)
    }

    /// Materialises any still-cold terms of `qid` before its lists are
    /// probed — the whole batch of cold terms in one store pass. The
    /// `num_cold` fast path keeps this a single branch in steady state, when
    /// no term is cold.
    fn ensure_query_terms_warm(&mut self, qid: QueryId) {
        if self.index.num_cold() == 0 {
            return;
        }
        // cts-lint: allow(panic-in-hot-path, callers pass ids taken from the live query slab)
        let state = self.queries.get(qid).expect("query exists");
        let cold: Vec<TermId> = state
            .thresholds
            .iter()
            .map(|(term, _)| *term)
            .filter(|term| self.index.is_cold(*term))
            .collect();
        if !cold.is_empty() {
            self.index.materialise_terms(&cold);
        }
    }

    /// Runs (or resumes) the threshold search for `qid` until `S_k ≥ τ`,
    /// then reconciles the per-list threshold trees with the new frontier.
    fn run_threshold_search(&mut self, qid: QueryId, register: bool) {
        self.ensure_query_terms_warm(qid);
        // cts-lint: allow(panic-in-hot-path, callers pass ids taken from the live query slab)
        let state = self.queries.get_mut(qid).expect("query exists");
        let before: Vec<Weight> = state.thresholds.iter().map(|(_, theta)| *theta).collect();
        threshold_descent(&self.index, state);
        for ((term, after), before) in state.thresholds.iter().zip(before) {
            let tree = self.trees.get_or_default(*term);
            if register {
                tree.insert(qid, *after);
            } else if before != *after {
                tree.update(qid, before, *after);
            }
        }
    }

    /// Fills `self.scratch` with the queries whose frontier `composition`
    /// crosses — every `Q` with `θ_{Q,t} ≤ w_{d,t}` for at least one term `t`
    /// of the document — sorted by query id and deduplicated. Probing is one
    /// arena index plus one `partition_point` per term; the buffer is reused
    /// across events so the hot path performs no allocation.
    fn collect_affected_queries(&mut self, composition: &cts_text::WeightedVector) {
        self.scratch.clear();
        for entry in composition.as_slice() {
            if let Some(tree) = self.trees.get(entry.term) {
                self.scratch
                    .extend(tree.affected_by(entry.weight).map(|hit| hit.query));
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
    }

    /// Handles the arrival side of one stream event. The document is already
    /// in the index. Returns `(queries_touched, results_changed)`.
    fn handle_arrival(&mut self, doc: &Document) -> (usize, usize) {
        self.collect_affected_queries(&doc.composition);
        let affected = std::mem::take(&mut self.scratch);
        let touched = affected.len();
        let mut changed = 0;
        for &qid in &affected {
            // cts-lint: allow(panic-in-hot-path, deregistration removes tree entries, so probes only yield live queries)
            let state = self.queries.get_mut(qid).expect("tree entries are live");
            state.arrivals_examined += 1;
            state.postings_examined += 1;
            let score = state.query.score(&doc.composition);
            state.results.insert(doc.id, score);
            if state.results.is_in_top_k(doc.id, state.query.k()) {
                changed += 1;
                if self.config.enable_rollup {
                    self.roll_up(qid);
                }
            }
        }
        self.scratch = affected;
        (touched, changed)
    }

    /// Handles one expiration. The document has already been removed from
    /// the index. Returns `(queries_touched, results_changed)`.
    fn handle_expiration(&mut self, doc: &Document) -> (usize, usize) {
        self.collect_affected_queries(&doc.composition);
        let affected = std::mem::take(&mut self.scratch);
        let touched = affected.len();
        let mut changed = 0;
        for &qid in &affected {
            // cts-lint: allow(panic-in-hot-path, deregistration removes tree entries, so probes only yield live queries)
            let state = self.queries.get_mut(qid).expect("tree entries are live");
            state.expirations_examined += 1;
            if !state.results.contains(doc.id) {
                // The document sat exactly on the frontier without having
                // been examined; nothing to repair.
                continue;
            }
            let was_top_k = state.results.is_in_top_k(doc.id, state.query.k());
            state.results.remove(doc.id);
            if was_top_k {
                changed += 1;
                state.refills += 1;
                self.run_threshold_search(qid, false);
            }
        }
        self.scratch = affected;
        (touched, changed)
    }

    /// Rolls `qid`'s local thresholds up the lists while the resulting
    /// influence threshold stays at or below `S_k`, evicting unverified
    /// documents whose only support was the reclaimed band (paper §III-C).
    fn roll_up(&mut self, qid: QueryId) {
        self.ensure_query_terms_warm(qid);
        // cts-lint: allow(panic-in-hot-path, the only caller just looked the query up in the slab)
        let state = self.queries.get_mut(qid).expect("query exists");
        let k = state.query.k();
        loop {
            let s_k = state.results.kth_score(k);
            let tau = state.tau();
            // Pick the roll-up step with the largest slack reclaim that keeps
            // τ' ≤ S_k. `lowest_above` yields the preceding list entry c_t.
            let mut best: Option<(usize, Weight, f64)> = None;
            for (i, (term, theta)) in state.thresholds.iter().enumerate() {
                let Some(list) = self.index.list(*term) else {
                    continue;
                };
                let Some(above) = list.lowest_above(*theta) else {
                    continue;
                };
                let gain = state.query.weight(*term).get() * (above.weight - *theta).get();
                if tau + gain <= s_k && best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                    best = Some((i, above.weight, gain));
                }
            }
            let Some((slot, new_theta, _)) = best else {
                break;
            };
            let (term, old_theta) = state.thresholds[slot];
            // Documents whose weight falls in [θ, c_t) lose this list's
            // support; evict them unless another list still covers them.
            let band: Vec<DocId> = self
                .index
                .list(term)
                .map(|list| {
                    list.iter_weight_range(old_theta, new_theta)
                        .map(|p| p.doc)
                        .collect()
                })
                .unwrap_or_default();
            state.thresholds[slot].1 = new_theta;
            for doc in band {
                if !state.results.contains(doc) {
                    continue;
                }
                let composition = &self
                    .index
                    .store()
                    .get(doc)
                    // cts-lint: allow(panic-in-hot-path, the band came from the index's own lists, which only reference stored documents)
                    .expect("banded documents are valid")
                    .composition;
                let supported = state
                    .thresholds
                    .iter()
                    .any(|(t, theta)| composition.impact(*t) >= *theta && composition.contains(*t));
                if !supported {
                    debug_assert!(
                        !state.results.is_in_top_k(doc, k),
                        "roll-up must never evict a top-k document"
                    );
                    state.results.remove(doc);
                }
            }
            state.rollups += 1;
            self.trees
                .get_mut(term)
                // cts-lint: allow(panic-in-hot-path, registration filed a tree entry for every query term)
                .expect("tree exists for query term")
                .update(qid, old_theta, new_theta);
        }
    }
}

/// Runs the (initial or resumed) threshold search: repeatedly examines the
/// highest-impact unexamined posting among the query's lists, maintaining
/// `R` and the frontier, until `S_k ≥ τ` or the lists are exhausted.
fn threshold_descent(index: &InvertedIndex, state: &mut QueryState) {
    let k = state.query.k();
    loop {
        // Peek the best unexamined posting of each list (at or below the
        // current frontier, skipping documents already in R — ties at the
        // frontier may or may not have been examined).
        let mut peeks: Vec<Option<cts_index::Posting>> = Vec::with_capacity(state.thresholds.len());
        let mut tau_next = 0.0;
        for (term, theta) in &state.thresholds {
            let peek = index.list(*term).and_then(|list| {
                list.iter_at_or_below(*theta)
                    .find(|p| !state.results.contains(p.doc))
            });
            if let Some(p) = peek {
                tau_next += state.query.weight(*term).get() * p.weight.get();
            }
            peeks.push(peek);
        }

        // Stop only when `S_k` STRICTLY exceeds the bound (or nothing is
        // left to examine): synthetic integer term frequencies make exact
        // score ties common, and a document tied with `S_k` at the frontier
        // may out-rank an in-R document under the doc-id tie-break, so the
        // search must keep going until ties are provably impossible.
        let exhausted = peeks.iter().all(Option::is_none);
        if exhausted || state.results.kth_score(k) > tau_next {
            // Done: snap every local threshold to its peek frontier (every
            // posting strictly above it is in R).
            for ((_, theta), peek) in state.thresholds.iter_mut().zip(&peeks) {
                *theta = peek.map(|p| p.weight).unwrap_or(Weight::ZERO);
            }
            return;
        }

        // Examine the whole tie group of the most promising list.
        let (slot, posting) = peeks
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, *p)))
            .max_by(|(i, a), (j, b)| {
                let (ta, _) = state.thresholds[*i];
                let (tb, _) = state.thresholds[*j];
                let ca = state.query.weight(ta).get() * a.weight.get();
                let cb = state.query.weight(tb).get() * b.weight.get();
                // cts-lint: allow(panic-in-hot-path, Weight::new rejects NaN, so products of weights compare totally)
                ca.partial_cmp(&cb).expect("weights are not NaN")
            })
            // cts-lint: allow(panic-in-hot-path, the stop test above returned unless some peek is Some)
            .expect("kth_score < tau_next implies an unexamined posting");
        // Examine the full tie group at that weight so the frontier is exact:
        // afterwards, every posting strictly above θ is guaranteed to be in R.
        let (term, _) = state.thresholds[slot];
        let group_weight = posting.weight;
        let members: Vec<DocId> = index
            .list(term)
            // cts-lint: allow(panic-in-hot-path, the chosen slot's peek came from this exact list)
            .expect("peeked list exists")
            .iter_at_or_below(group_weight)
            .take_while(|p| p.weight == group_weight)
            .map(|p| p.doc)
            .collect();
        for doc in members {
            if state.results.contains(doc) {
                continue;
            }
            let composition = &index
                .store()
                .get(doc)
                // cts-lint: allow(panic-in-hot-path, postings only reference documents held by the store)
                .expect("indexed documents are valid")
                .composition;
            let score = state.query.score(composition);
            state.results.insert(doc, score);
            state.postings_examined += 1;
        }
        state.thresholds[slot].1 = group_weight;
    }
}

impl ItaEngine {
    /// Registers `query` under a caller-chosen id — the sharded engine
    /// assigns ids globally and routes each query to one shard, so the shard
    /// must not mint its own. Ids handed out by a later [`Engine::register`]
    /// never collide with ids registered this way.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is already registered.
    pub fn register_with_id(&mut self, qid: QueryId, query: ContinuousQuery) {
        let newly_live: Vec<TermId> = query
            .terms()
            .filter(|(term, _)| self.term_filter.acquire(*term))
            .map(|(term, _)| term)
            .collect();
        self.admit_newly_live(newly_live);
        self.finish_register(qid, query);
    }

    /// Registers a whole batch of queries under caller-chosen ids — the
    /// shard-side half of [`Engine::register_batch`]. All of the batch's
    /// newly-live terms are brought up in **one sorted merge over the stored
    /// window** (one [`InvertedIndex::backfill_terms`] pass), and only then
    /// do the per-query threshold searches run — each is byte-identical to
    /// the one a lone [`ItaEngine::register_with_id`] call would have run,
    /// because registration reads the index and writes only the registering
    /// query's own state. The old path paid that window scan once *per
    /// query*; this is the registration cliff fix of DESIGN.md §9.
    ///
    /// # Panics
    ///
    /// Panics if any id is already registered.
    pub fn register_batch_with_ids(&mut self, batch: Vec<(QueryId, ContinuousQuery)>) {
        // `acquire` returns true exactly once per distinct term across the
        // whole batch, so `newly_live` is duplicate-free.
        let mut newly_live: Vec<TermId> = Vec::new();
        for (_, query) in &batch {
            newly_live.extend(
                query
                    .terms()
                    .filter(|(term, _)| self.term_filter.acquire(*term))
                    .map(|(term, _)| term),
            );
        }
        // Eager on purpose, even under lazy registration: the threshold
        // searches below probe every one of these lists immediately, so cold
        // marks would only re-discover them one query at a time.
        if !newly_live.is_empty() {
            self.index.backfill_terms(&newly_live);
        }
        for (qid, query) in batch {
            self.finish_register(qid, query);
        }
    }

    /// Brings newly-live terms into the index: cold marks under lazy
    /// registration (the backfill runs at first probe), an immediate one-pass
    /// backfill otherwise.
    fn admit_newly_live(&mut self, newly_live: Vec<TermId>) {
        if newly_live.is_empty() {
            return;
        }
        if self.config.lazy_registration {
            for term in newly_live {
                self.index.mark_cold(term);
            }
        } else {
            self.index.backfill_terms(&newly_live);
        }
    }

    /// The shared tail of registration: record the query state and run its
    /// initial threshold search.
    fn finish_register(&mut self, qid: QueryId, query: ContinuousQuery) {
        self.next_query = self.next_query.max(qid.0.saturating_add(1));
        let thresholds = query
            .terms()
            .map(|(t, _)| (t, Weight::new(f64::INFINITY)))
            .collect();
        let previous = self.queries.insert(
            qid,
            QueryState {
                query,
                results: ResultSet::new(),
                thresholds,
                arrivals_examined: 0,
                expirations_examined: 0,
                refills: 0,
                rollups: 0,
                postings_examined: 0,
            },
        );
        assert!(previous.is_none(), "query id {qid} is already registered");
        self.run_threshold_search(qid, true);
    }

    /// Removes `query` from this engine **without discarding its state**,
    /// returning the [`QueryMigration`] package an [`ItaEngine::install_query`]
    /// call on another engine (over the same window contents) consumes. The
    /// engine-side teardown is exactly [`Engine::deregister`]'s: threshold-tree
    /// entries are removed (empty trees retired) and term references are
    /// released (last-reference lists dropped). Returns `None` if the query
    /// is not registered.
    pub fn extract_query(&mut self, query: QueryId) -> Option<QueryMigration> {
        let state = self.queries.remove(query)?;
        for (term, theta) in &state.thresholds {
            if let Some(tree) = self.trees.get_mut(*term) {
                tree.remove(query, *theta);
                if tree.is_empty() {
                    self.trees.remove(*term);
                }
            }
            if self.term_filter.release(*term) {
                self.index.drop_list(*term);
            }
        }
        Some(QueryMigration { state })
    }

    /// Installs a query previously [`ItaEngine::extract_query`]ed from an
    /// engine whose valid-document window matches this one's (the sharded
    /// engine's shards all mirror the same window, so any shard pair
    /// qualifies). The migrated thresholds are filed into the threshold trees
    /// verbatim and newly-live terms are admitted to the index (cold under
    /// lazy registration, backfilled eagerly otherwise) — after which this
    /// engine maintains the query byte-identically to the one it left.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is already registered here.
    pub fn install_query(&mut self, qid: QueryId, migration: QueryMigration) {
        self.next_query = self.next_query.max(qid.0.saturating_add(1));
        let QueryMigration { state } = migration;
        // Under lazy registration the newly-live terms only go cold here:
        // installation runs no threshold search, so a migration costs no
        // window scan at all until (unless) the query is next probed.
        let newly_live: Vec<TermId> = state
            .thresholds
            .iter()
            .filter(|(term, _)| self.term_filter.acquire(*term))
            .map(|(term, _)| *term)
            .collect();
        self.admit_newly_live(newly_live);
        for (term, theta) in &state.thresholds {
            self.trees.get_or_default(*term).insert(qid, *theta);
        }
        let previous = self.queries.insert(qid, state);
        assert!(previous.is_none(), "query id {qid} is already registered");
    }

    /// Processes one already-shared stream event — the fan-out path of the
    /// sharded engine, where every shard receives the same `Arc`'d document
    /// and the window's composition lists exist once in memory no matter how
    /// many shards mirror them. [`Engine::process_document`] wraps and
    /// delegates here.
    pub fn process_shared(&mut self, doc: Arc<Document>) -> EventOutcome {
        self.clock = doc.arrival;
        let mut outcome = EventOutcome {
            arrived: doc.id,
            ..EventOutcome::default()
        };

        self.index
            .insert_shared_filtered(Arc::clone(&doc), |term| self.term_filter.contains(term));
        let (touched, changed) = self.handle_arrival(&doc);
        outcome.queries_touched_by_arrival = touched;
        outcome.results_changed += changed;

        let expired = self.window.expired(self.index.store(), self.clock);
        outcome.expired = expired.len();
        for id in expired {
            let doc = self
                .index
                .remove_document(id)
                // cts-lint: allow(panic-in-hot-path, the expiration set was computed from the same store one line up)
                .expect("window reported a valid document");
            let (touched, changed) = self.handle_expiration(&doc);
            outcome.queries_touched_by_expiration += touched;
            outcome.results_changed += changed;
        }
        outcome
    }

    /// Audits the engine's deep structural invariants, panicking with a
    /// description on violation (DESIGN.md §11): the inverted index's own
    /// invariants, every threshold tree's strict ordering, two-way agreement
    /// between tree entries and the live queries' recorded local thresholds,
    /// result sets referencing only valid (windowed) documents, and term
    /// refcounts equal to the number of live referencing queries, with every
    /// cold term still referenced. Driven by the testkit lockstep runner when
    /// the `invariant-checks` feature (or a unit-test build) is active; far
    /// too expensive for production paths.
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        for (term, tree) in self.trees.iter() {
            assert!(
                !tree.is_empty(),
                "empty threshold tree for {term} was not retired"
            );
            tree.check_invariants();
            for entry in tree.iter() {
                let Some(state) = self.queries.get(entry.query) else {
                    // cts-lint: allow(panic-in-hot-path, audit-only diagnostics, never on a hot path)
                    panic!(
                        "threshold tree for {term} references dead query {}",
                        entry.query
                    );
                };
                assert!(
                    state
                        .thresholds
                        .iter()
                        .any(|(t, theta)| *t == term && *theta == entry.threshold),
                    "tree entry θ={} for {} in {term} disagrees with the query's recorded thresholds",
                    entry.threshold,
                    entry.query
                );
            }
        }
        let mut live_refs: Vec<u32> = Vec::new();
        for (qid, state) in self.queries.iter() {
            for (term, theta) in &state.thresholds {
                let Some(tree) = self.trees.get(*term) else {
                    // cts-lint: allow(panic-in-hot-path, audit-only diagnostics, never on a hot path)
                    panic!("no threshold tree covers {qid}'s term {term}");
                };
                assert!(
                    tree.iter().any(|e| e.query == qid && e.threshold == *theta),
                    "{qid}'s recorded threshold θ={theta} for {term} is missing from the tree"
                );
                let slot = term.0 as usize;
                if slot >= live_refs.len() {
                    live_refs.resize(slot + 1, 0);
                }
                live_refs[slot] += 1;
            }
            for ranked in state.results.iter() {
                assert!(
                    self.index.store().get(ranked.doc).is_some(),
                    "{qid}'s result set holds expired document {}",
                    ranked.doc
                );
            }
        }
        let filter = &self.term_filter;
        for slot in 0..live_refs.len().max(filter.counts.len()) {
            let counted = filter.counts.get(slot).copied().unwrap_or(0);
            let live = live_refs.get(slot).copied().unwrap_or(0);
            assert_eq!(
                counted,
                live,
                "term {} refcount {counted} disagrees with {live} live referencing queries",
                TermId(slot as u32)
            );
        }
        for term in self.index.cold_terms() {
            assert!(
                filter.contains(term),
                "{term} is cold in the index but no live query references it"
            );
        }
    }
}

impl Engine for ItaEngine {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        let qid = QueryId(self.next_query);
        self.register_with_id(qid, query);
        qid
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        let batch: Vec<(QueryId, ContinuousQuery)> = queries
            .into_iter()
            .map(|query| {
                let qid = QueryId(self.next_query);
                self.next_query += 1;
                (qid, query)
            })
            .collect();
        let ids: Vec<QueryId> = batch.iter().map(|(qid, _)| *qid).collect();
        self.register_batch_with_ids(batch);
        ids
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        // Deregistration is extraction with the migrated state discarded.
        self.extract_query(query).is_some()
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.process_shared(Arc::new(doc))
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.queries
            .get(query)
            .map(|state| state.results.top(state.query.k()))
            .unwrap_or_default()
    }

    fn num_queries(&self) -> usize {
        self.queries.len()
    }

    fn num_valid_documents(&self) -> usize {
        self.index.num_documents()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "ita"
    }

    fn check_invariants(&self) {
        ItaEngine::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::WeightedVector;

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    fn engine(window: usize) -> ItaEngine {
        ItaEngine::new(SlidingWindow::count_based(window), ItaConfig::default())
    }

    /// The worked example of the paper's §III (Figure 2): query {white,
    /// tower} with k = 2 over documents d1..d8.
    fn paper_lists_engine() -> (ItaEngine, QueryId) {
        let mut e = engine(100);
        // L_white (term 20) and L_tower (term 11) impact entries.
        let docs = [
            (1, vec![(11, 0.08), (20, 0.06)]),
            (2, vec![(11, 0.05), (20, 0.09)]),
            (3, vec![(20, 0.04)]),
            (5, vec![(11, 0.07)]),
            (6, vec![(11, 0.16), (20, 0.03)]),
            (7, vec![(11, 0.10)]),
            (8, vec![(11, 0.05)]),
            (9, vec![(20, 0.16)]),
        ];
        for (id, terms) in docs {
            e.process_document(doc(id, &terms));
        }
        let q = e.register(ContinuousQuery::from_weights(
            [(TermId(11), 0.447), (TermId(20), 0.894)],
            2,
        ));
        (e, q)
    }

    fn top_ids(e: &ItaEngine, q: QueryId) -> Vec<u64> {
        e.current_results(q).iter().map(|r| r.doc.0).collect()
    }

    fn brute_force_top(e: &ItaEngine, query: &ContinuousQuery) -> Vec<u64> {
        let mut rs = ResultSet::new();
        for d in e.index.store().iter() {
            let s = query.score(&d.composition);
            if s > 0.0 {
                rs.insert(d.id, s);
            }
        }
        rs.top(query.k()).iter().map(|r| r.doc.0).collect()
    }

    #[test]
    fn initial_search_finds_the_true_top_k() {
        let (e, q) = paper_lists_engine();
        let top = e.current_results(q);
        assert_eq!(top.len(), 2);
        // d9 scores 0.894·0.16 ≈ 0.143; d2 scores 0.447·0.05 + 0.894·0.09 ≈ 0.103.
        assert_eq!(top[0].doc, DocId(9));
        assert_eq!(top[1].doc, DocId(2));
        assert!(top[0].score > top[1].score);
    }

    #[test]
    fn initial_search_reads_only_a_prefix() {
        let (e, q) = paper_lists_engine();
        let stats = e.query_stats(q).unwrap();
        // 8 documents are valid; the threshold search must not score all of
        // them (the paper's Figure 2 stops after 5 examinations).
        assert!(
            stats.postings_examined < 8,
            "examined {}",
            stats.postings_examined
        );
        assert!(stats.influence_threshold <= stats.kth_score + 1e-12);
    }

    #[test]
    fn arrival_crossing_the_frontier_updates_the_top_k() {
        let (mut e, q) = paper_lists_engine();
        let out = e.process_document(doc(20, &[(20, 0.17)]));
        assert_eq!(out.queries_touched_by_arrival, 1);
        assert_eq!(out.results_changed, 1);
        assert_eq!(top_ids(&e, q), vec![20, 9]);
    }

    #[test]
    fn arrival_below_the_frontier_is_ignored() {
        let (mut e, q) = paper_lists_engine();
        let before = top_ids(&e, q);
        let out = e.process_document(doc(21, &[(11, 0.001), (20, 0.001)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
        assert_eq!(out.results_changed, 0);
        assert_eq!(top_ids(&e, q), before);
    }

    #[test]
    fn arrival_without_query_terms_is_ignored() {
        let (mut e, q) = paper_lists_engine();
        let out = e.process_document(doc(22, &[(99, 0.9)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
        assert_eq!(top_ids(&e, q), vec![9, 2]);
    }

    #[test]
    fn expiration_of_top_k_document_triggers_refill() {
        let mut e = engine(3);
        let q = e.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        e.process_document(doc(0, &[(1, 0.9)]));
        e.process_document(doc(1, &[(1, 0.5)]));
        e.process_document(doc(2, &[(1, 0.7)]));
        assert_eq!(top_ids(&e, q), vec![0, 2]);
        // Window size 3: arrival of d3 expires d0 (the best document).
        let out = e.process_document(doc(3, &[(1, 0.1)]));
        assert_eq!(out.expired, 1);
        assert!(out.queries_touched_by_expiration >= 1);
        assert_eq!(top_ids(&e, q), vec![2, 1]);
        assert!(e.query_stats(q).unwrap().refills >= 1);
    }

    #[test]
    fn results_track_brute_force_over_a_churning_window() {
        let mut e = engine(10);
        let query = ContinuousQuery::from_weights([(TermId(2), 0.6), (TermId(5), 0.8)], 3);
        let q = e.register(query.clone());
        for i in 0..200u64 {
            let t1 = (i % 7) as u32;
            let t2 = ((i * 3 + 1) % 7) as u32;
            let w1 = 0.05 + (i % 13) as f64 * 0.03;
            let w2 = 0.05 + (i % 5) as f64 * 0.11;
            e.process_document(doc(i, &[(t1, w1), (t2, w2)]));
            assert_eq!(
                top_ids(&e, q),
                brute_force_top(&e, &query),
                "diverged at event {i}"
            );
        }
    }

    #[test]
    fn ita_brute_force_agreement_beyond_segment_capacity() {
        // A 400-document window over a 3-term vocabulary: each inverted list
        // grows far past the default segment capacity (128), and the discrete
        // weight palette produces tie runs much longer than one segment, so
        // the initial descent, the refill resume after a top-k expiration,
        // and the roll-up range probe all cross segment boundaries —
        // including boundaries that cut straight through a tie run.
        let mut e = engine(400);
        let query = ContinuousQuery::from_weights([(TermId(0), 0.7), (TermId(1), 0.3)], 5);
        let q = e.register(query.clone());
        for i in 0..1_200u64 {
            let w0 = 0.1 + (i % 4) as f64 * 0.2; // 4 distinct weights → long ties
            let w1 = 0.15 + (i % 3) as f64 * 0.25;
            e.process_document(doc(i, &[((i % 3) as u32, w0), (1, w1)]));
            if i % 50 == 0 || i > 1_100 {
                assert_eq!(
                    top_ids(&e, q),
                    brute_force_top(&e, &query),
                    "diverged at event {i}"
                );
            }
        }
        // The window really did force multi-segment lists. Tied to the real
        // capacity constant so this test fails loudly (instead of silently
        // losing its purpose) if the default segment size is ever raised
        // past what this window produces.
        let stats = e.index_stats();
        assert!(
            stats.longest_list > cts_index::segmented::DEFAULT_SEGMENT_CAPACITY,
            "longest list {} never crossed a segment boundary",
            stats.longest_list
        );
        let s = e.query_stats(q).unwrap();
        assert!(s.refills > 0, "no refill crossed a boundary");
        assert!(s.rollups > 0, "no roll-up crossed a boundary");
    }

    #[test]
    fn rollup_keeps_result_sets_smaller() {
        let mut with = ItaEngine::new(SlidingWindow::count_based(64), ItaConfig::default());
        let mut without = ItaEngine::new(
            SlidingWindow::count_based(64),
            ItaConfig {
                enable_rollup: false,
                ..ItaConfig::default()
            },
        );
        let query = ContinuousQuery::from_weights([(TermId(0), 1.0)], 2);
        let qa = with.register(query.clone());
        let qb = without.register(query);
        for i in 0..300u64 {
            // Steadily improving scores force frequent top-k turnover.
            let d = doc(i, &[(0, 0.1 + (i % 50) as f64 * 0.01)]);
            with.process_document(d.clone());
            without.process_document(d);
            assert_eq!(top_ids(&with, qa), top_ids(&without, qb));
        }
        let s_with = with.query_stats(qa).unwrap();
        let s_without = without.query_stats(qb).unwrap();
        assert!(s_with.rollups > 0);
        assert_eq!(s_without.rollups, 0);
        assert!(
            s_with.result_set_size <= s_without.result_set_size,
            "rollup {} vs plain {}",
            s_with.result_set_size,
            s_without.result_set_size
        );
    }

    #[test]
    fn invariant_every_document_above_a_threshold_is_in_r() {
        let mut e = engine(20);
        let q = e.register(ContinuousQuery::from_weights(
            [(TermId(1), 0.5), (TermId(2), 0.5)],
            2,
        ));
        for i in 0..100u64 {
            e.process_document(doc(
                i,
                &[
                    ((i % 3) as u32, 0.1 + (i % 11) as f64 * 0.05),
                    (3 + (i % 2) as u32, 0.2),
                ],
            ));
            let state = e.queries.get(q).unwrap();
            for (term, theta) in &state.thresholds {
                if let Some(list) = e.index.list(*term) {
                    for p in list.iter() {
                        if p.weight > *theta {
                            assert!(
                                state.results.contains(p.doc),
                                "event {i}: {} above θ={} in {} missing from R",
                                p.doc,
                                theta,
                                term
                            );
                        }
                    }
                }
            }
        }
    }

    /// Feeds `events` to `e` and `oracle`, checking after each one
    /// that every live query's results equal the oracle's and that the index
    /// holds exactly one posting per (window document, live query term).
    fn feed_against_oracle(
        e: &mut ItaEngine,
        oracle: &mut crate::BruteForceOracle,
        live: &[(QueryId, ContinuousQuery)],
        events: std::ops::Range<u64>,
    ) {
        for i in events {
            let d = doc(
                i,
                &[
                    ((i % 5) as u32, 0.1 + (i % 7) as f64 * 0.07),
                    (5 + (i % 3) as u32, 0.2 + (i % 4) as f64 * 0.05),
                ],
            );
            e.process_document(d.clone());
            oracle.process_document(d);
            for (qid, _) in live {
                assert_eq!(
                    e.current_results(*qid),
                    oracle.current_results(*qid),
                    "{qid} diverged from the oracle at event {i}"
                );
            }
            let live_postings = e
                .store_documents()
                .flat_map(|d| d.composition.iter())
                .filter(|entry| live.iter().any(|(_, q)| q.weights().contains(entry.term)))
                .count();
            let stats = e.index_stats();
            assert_eq!(stats.postings, live_postings, "event {i}");
            assert_eq!(stats.documents, oracle.num_valid_documents());
        }
    }

    #[test]
    fn term_filtered_index_tracks_live_query_terms_through_churn() {
        let window = SlidingWindow::count_based(12);
        let mut e = ItaEngine::new(window, ItaConfig::default());
        let mut oracle = crate::BruteForceOracle::new(window);
        let mut live = Vec::new();
        // Pre-registration traffic files nothing.
        feed_against_oracle(&mut e, &mut oracle, &live, 0..30);
        assert_eq!(e.index_stats().postings, 0);
        // Late registration must backfill the window it never indexed.
        let q1 = ContinuousQuery::from_weights([(TermId(0), 0.7), (TermId(1), 0.3)], 3);
        let a1 = e.register(q1.clone());
        assert_eq!(oracle.register(q1.clone()), a1);
        live.push((a1, q1));
        feed_against_oracle(&mut e, &mut oracle, &live, 30..60);
        // A second query brings a new term live mid-stream...
        let q2 = ContinuousQuery::from_weights([(TermId(2), 1.0)], 2);
        let a2 = e.register(q2.clone());
        assert_eq!(oracle.register(q2.clone()), a2);
        live.push((a2, q2));
        feed_against_oracle(&mut e, &mut oracle, &live, 60..90);
        // ...and deregistering the first retires its last-reference lists.
        assert!(e.deregister(a1) && oracle.deregister(a1));
        live.remove(0);
        feed_against_oracle(&mut e, &mut oracle, &live, 90..120);
        assert!(e.index_stats().postings > 0);
    }

    #[test]
    fn extract_install_migration_is_behaviour_preserving() {
        // Two term-filtered engines over the same stream (the shard
        // configuration): migrating a query from one to the other
        // mid-stream must leave every observable — results, bookkeeping
        // counters, thresholds, event outcomes — exactly as if the query had
        // lived on the destination all along (modelled by `stayed`).
        let window = SlidingWindow::count_based(15);
        let mut source = ItaEngine::new(window, ItaConfig::default());
        let mut destination = ItaEngine::new(window, ItaConfig::default());
        let mut stayed = ItaEngine::new(window, ItaConfig::default());
        let q = ContinuousQuery::from_weights([(TermId(1), 0.7), (TermId(2), 0.3)], 3);
        let qid = source.register(q.clone());
        assert_eq!(stayed.register(q), qid);
        let feed = |engines: &mut [&mut ItaEngine], lo: u64, hi: u64| {
            for i in lo..hi {
                let d = doc(
                    i,
                    &[
                        ((i % 4) as u32, 0.1 + (i % 7) as f64 * 0.09),
                        (2, 0.05 + (i % 3) as f64 * 0.2),
                    ],
                );
                for engine in engines.iter_mut() {
                    engine.process_document(d.clone());
                }
            }
        };
        feed(&mut [&mut source, &mut destination, &mut stayed], 0, 40);
        let migration = source.extract_query(qid).expect("query is registered");
        assert!(source.extract_query(qid).is_none(), "extract removes");
        assert_eq!(source.num_queries(), 0);
        // The extracted package names the terms the destination must cover.
        let terms: Vec<u32> = migration.terms().map(|t| t.0).collect();
        assert_eq!(terms, vec![1, 2]);
        // The source dropped its now-unreferenced lists.
        assert_eq!(source.index_stats().postings, 0);
        destination.install_query(qid, migration);
        assert_eq!(destination.num_queries(), 1);
        assert_eq!(
            destination.current_results(qid),
            stayed.current_results(qid)
        );
        assert_eq!(destination.query_stats(qid), stayed.query_stats(qid));
        assert_eq!(
            destination.local_threshold(qid, TermId(1)),
            stayed.local_threshold(qid, TermId(1))
        );
        // Post-migration traffic (arrivals, expirations, refills, roll-ups)
        // stays in lockstep with the engine that never migrated.
        for i in 40..120u64 {
            let d = doc(
                i,
                &[
                    ((i % 4) as u32, 0.1 + (i % 7) as f64 * 0.09),
                    (2, 0.05 + (i % 3) as f64 * 0.2),
                ],
            );
            let a = destination.process_document(d.clone());
            let b = stayed.process_document(d);
            assert_eq!(a, b, "outcomes diverged at event {i}");
            assert_eq!(
                destination.current_results(qid),
                stayed.current_results(qid)
            );
        }
        assert_eq!(destination.query_stats(qid), stayed.query_stats(qid));
    }

    #[test]
    fn default_process_batch_is_the_per_event_loop() {
        let mut batched = engine(6);
        let mut singles = engine(6);
        let qa = batched.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let qb = singles.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let docs: Vec<Document> = (0..10u64)
            .map(|i| doc(i, &[(1, 0.1 + (i % 4) as f64 * 0.2)]))
            .collect();
        let expected: Vec<EventOutcome> = docs
            .clone()
            .into_iter()
            .map(|d| singles.process_document(d))
            .collect();
        assert_eq!(batched.process_batch(docs), expected);
        assert_eq!(batched.current_results(qa), singles.current_results(qb));
        assert!(batched.process_batch(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn install_over_a_live_id_panics() {
        let mut a = engine(4);
        let mut b = engine(4);
        let qid = a.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        assert_eq!(
            b.register(ContinuousQuery::from_weights([(TermId(2), 1.0)], 1)),
            qid
        );
        let migration = a.extract_query(qid).unwrap();
        b.install_query(qid, migration);
    }

    #[test]
    fn register_with_id_controls_the_id_space() {
        let mut e = engine(4);
        e.register_with_id(
            QueryId(7),
            ContinuousQuery::from_weights([(TermId(1), 1.0)], 1),
        );
        // Fresh ids never collide with externally assigned ones.
        let next = e.register(ContinuousQuery::from_weights([(TermId(2), 1.0)], 1));
        assert_eq!(next, QueryId(8));
        assert_eq!(e.num_queries(), 2);
        assert!(e.deregister(QueryId(7)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_register_with_id_panics() {
        let mut e = engine(4);
        e.register_with_id(
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(1), 1.0)], 1),
        );
        e.register_with_id(
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(2), 1.0)], 1),
        );
    }

    #[test]
    fn deregister_removes_tree_entries() {
        let (mut e, q) = paper_lists_engine();
        assert!(!e.trees.is_empty());
        assert!(e.deregister(q));
        assert!(!e.deregister(q));
        assert!(e.trees.is_empty());
        assert!(e.current_results(q).is_empty());
        assert_eq!(e.num_queries(), 0);
        // The stream keeps flowing without touching the removed query.
        let out = e.process_document(doc(30, &[(20, 0.5)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
    }

    #[test]
    fn queries_registered_on_empty_window_pick_up_arrivals() {
        let mut e = engine(5);
        let q = e.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        assert!(e.current_results(q).is_empty());
        e.process_document(doc(0, &[(7, 0.4)]));
        e.process_document(doc(1, &[(8, 0.9)]));
        e.process_document(doc(2, &[(7, 0.6)]));
        assert_eq!(top_ids(&e, q), vec![2, 0]);
    }

    #[test]
    fn fewer_than_k_matches_returns_fewer_results() {
        let mut e = engine(5);
        let q = e.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 3));
        e.process_document(doc(0, &[(7, 0.4)]));
        e.process_document(doc(1, &[(9, 0.4)]));
        let top = e.current_results(q);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].doc, DocId(0));
    }

    #[test]
    fn clock_and_counts_are_reported() {
        let mut e = engine(2);
        assert_eq!(e.clock(), Timestamp::ZERO);
        assert_eq!(e.name(), "ita");
        e.process_document(doc(5, &[(0, 0.5)]));
        assert_eq!(e.clock(), Timestamp::from_millis(5));
        assert_eq!(e.num_valid_documents(), 1);
    }

    /// A term-filtered engine whose window holds `hits` documents carrying
    /// `term` among `filler` documents that do not.
    fn filtered_window(term: u32, hits: u64, filler: u64) -> ItaEngine {
        let total = hits + filler;
        let mut e = ItaEngine::new(
            SlidingWindow::count_based(total as usize + 1),
            ItaConfig::default(),
        );
        for i in 0..total {
            // Spread the hits across the window; fillers use a disjoint,
            // rotating vocabulary so the window is never degenerate.
            if i % (total / hits.max(1)).max(1) == 0 && i / (total / hits.max(1)).max(1) < hits {
                e.process_document(doc(i, &[(term, 0.2 + (i % 5) as f64 * 0.1)]));
            } else {
                e.process_document(doc(i, &[(1000 + (i % 7) as u32, 0.5)]));
            }
        }
        e
    }

    /// The satellite regression this PR's counter exists for: registration
    /// cost must scale with the postings of the lists the query actually
    /// probes, never with the window size the old eager scan paid.
    #[test]
    fn registration_cost_scales_with_probed_postings_not_window_size() {
        let hits = 8u64;
        let mut small = filtered_window(7, hits, 100);
        let mut large = filtered_window(7, hits, 400);
        assert_eq!(small.register_postings_touched(), 0);
        small.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        large.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        assert_eq!(
            small.register_postings_touched(),
            hits,
            "registration filed more postings than the term occurs"
        );
        assert_eq!(
            small.register_postings_touched(),
            large.register_postings_touched(),
            "registration cost moved with window size"
        );
    }

    #[test]
    fn a_burst_of_same_term_queries_backfills_the_list_once() {
        let hits = 8u64;
        let mut e = filtered_window(7, hits, 100);
        let queries: Vec<ContinuousQuery> = (1..=20)
            .map(|k| ContinuousQuery::from_weights([(TermId(7), 1.0)], (k % 3) + 1))
            .collect();
        let ids = e.register_batch(queries);
        assert_eq!(ids.len(), 20);
        // One sorted merge serves the whole burst: the cost is one list's
        // postings, not 20 of them.
        assert_eq!(e.register_postings_touched(), hits);
        // And the loop path agrees — the second and later registrations find
        // the term already live and file nothing.
        let mut looped = filtered_window(7, hits, 100);
        for k in 1..=20u32 {
            looped.register(ContinuousQuery::from_weights(
                [(TermId(7), 1.0)],
                ((k % 3) + 1) as usize,
            ));
        }
        assert_eq!(looped.register_postings_touched(), hits);
    }

    /// Lazy registration makes migration free of window scans: terms go cold
    /// on install and are only backfilled when a probe actually needs them —
    /// and a same-term registration elsewhere counts as such a probe.
    #[test]
    fn lazy_migration_defers_the_backfill_until_first_probe() {
        let hits = 6u64;
        let mut source = filtered_window(7, hits, 60);
        let q = source.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        let expected = source.current_results(q);
        let migration = source.extract_query(q).expect("query is live");

        // Same stream, so the target mirrors the source window (the
        // precondition `install_query` documents) — but no query ever made
        // term 7 live here.
        let mut target = filtered_window(7, hits, 60);
        let before = target.register_postings_touched();
        target.install_query(q, migration);
        assert!(target.num_cold_terms() > 0, "install should go cold");
        assert_eq!(
            target.register_postings_touched(),
            before,
            "install must not scan the window"
        );
        // The migrated query answers from its carried result set even while
        // its terms are cold…
        assert_eq!(target.current_results(q), expected);
        // …and the first probe (here: another registration sharing the term)
        // warms the list, exactly.
        target.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 1));
        assert_eq!(target.num_cold_terms(), 0);
        assert_eq!(target.register_postings_touched(), before + hits);
        assert_eq!(target.current_results(q), expected);
    }

    /// The eager foil: with `lazy_registration` off, install pays its window
    /// scan immediately (the pre-§9 behaviour the ablation bench prices).
    #[test]
    fn eager_migration_backfills_on_install() {
        let hits = 6u64;
        let eager = ItaConfig {
            lazy_registration: false,
            ..ItaConfig::default()
        };
        let mut source = ItaEngine::new(SlidingWindow::count_based(100), eager);
        for i in 0..40u64 {
            if i % 7 == 0 {
                source.process_document(doc(i, &[(7, 0.3)]));
            } else {
                source.process_document(doc(i, &[(1000 + (i % 5) as u32, 0.5)]));
            }
        }
        let q = source.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        let migration = source.extract_query(q).expect("query is live");
        let mut target = ItaEngine::new(SlidingWindow::count_based(100), eager);
        for i in 0..40u64 {
            if i % 7 == 0 {
                target.process_document(doc(i, &[(7, 0.3)]));
            } else {
                target.process_document(doc(i, &[(1000 + (i % 5) as u32, 0.5)]));
            }
        }
        target.install_query(q, migration);
        assert_eq!(target.num_cold_terms(), 0);
        assert_eq!(target.register_postings_touched(), hits);
    }
}
