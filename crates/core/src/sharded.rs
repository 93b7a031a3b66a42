//! Query-sharded parallel execution of the Incremental Threshold Algorithm.
//!
//! [`ShardedItaEngine`] partitions the registered queries across `N` worker
//! shards by a deterministic hash of the query id. Each shard owns, for its
//! query subset, **everything** the single-shard [`ItaEngine`] owns for the
//! full set: the per-query result sets and local thresholds, the per-term
//! threshold trees, and a *term-filtered shadow* inverted index — segmented
//! impact lists for only the terms its queries reference, mirrored over the
//! shared window (the document store holds `Arc`s, so the window's
//! composition lists exist once in memory no matter how many shards mirror
//! them).
//!
//! A stream event is fanned out **once**: the coordinator wraps the document
//! in an `Arc`, pushes it down each shard's SPSC request channel, and every
//! worker probes its own trees, repairs its own result sets and slides its
//! own window mirror with **zero cross-shard locking on the hot path** — the
//! only synchronisation is the channel handoff at the event boundary. The
//! per-shard [`crate::EventOutcome`]s are folded back with
//! [`crate::EventOutcome::merge_shard`] into exactly what a single-shard
//! engine would have reported, and per-worker [`ProcessingStats`] merge
//! through [`ProcessingStats::absorb`], so monitors and the sweep harness
//! see exact aggregate numbers.
//!
//! A stream **burst** is fanned out even more cheaply:
//! [`crate::Engine::process_batch`] ships the whole batch of `Arc`'d
//! documents to every shard in **one request/reply round-trip per shard**,
//! amortising the channel handoff and worker wake-up across the burst while
//! each worker still processes (and times) the events one by one, in order —
//! so the outcomes are byte-identical to the per-event loop, which the
//! batch-vs-singles differential tests enforce.
//!
//! ## Skew-aware rebalancing
//!
//! Static hash partitioning can be defeated by churn: if the surviving query
//! population happens to concentrate on one shard, that worker carries the
//! whole load while the rest idle. The coordinator therefore tracks the
//! per-shard query count and, at load-change and batch boundaries (never
//! mid-event), **migrates** queries from the heaviest to the lightest shard
//! while the heaviest exceeds [`RebalanceConfig::max_over_ideal`] times the
//! uniform share. A migration moves the query's complete ITA state —
//! result set, local thresholds, counters — via
//! [`ItaEngine::extract_query`]/[`ItaEngine::install_query`]; the receiving
//! shard backfills shadow-index lists for terms that just became live and
//! files the migrated thresholds verbatim, so processing resumes
//! byte-identically on the new shard (no threshold search is re-run). The
//! routing table ([`ShardedItaEngine::assigned_shard`]) supersedes the
//! initial hash placement ([`ShardedItaEngine::shard_of`]) once a query has
//! moved.
//!
//! ## Fault tolerance
//!
//! A production service cannot let one poisoned event take every registered
//! query down, so a worker panic is **data, not death** (DESIGN.md §10):
//!
//! * **Panic isolation** — every request a worker handles runs under one
//!   [`std::panic::catch_unwind`]. A panic never unwinds the worker thread;
//!   it drops the shard's engine state (the shard is *poisoned*) and comes
//!   back to the coordinator as a typed [`ShardFault`] reply. The shard is
//!   then *degraded*.
//! * **Cold resurrection** — the one recovery path. The coordinator keeps
//!   durable state updated **before** any fan-out — a query registry
//!   (id → [`ContinuousQuery`]), the placement table and a window mirror of
//!   `Arc`'d documents — so it can rebuild a degraded shard from scratch:
//!   respawn the thread if it is gone, re-register the shard's queries and
//!   replay the window. Rebuilt top-k results are exact (ITA's reported
//!   top-k is a function of the window contents); the re-derived
//!   *thresholds* are not guaranteed identical, so post-resurrection work
//!   counters in [`EventOutcome`] may differ from a fault-free history
//!   (`window_replay_rebuild_is_not_exact` in `tests/chaos_recovery.rs`).
//!   The faulted-vs-fault-free contract is therefore *results-exact*:
//!   arrivals, expirations, query ids and every top-k stay byte-identical.
//! * **Degraded-mode policy** — [`FaultPolicy`] decides what happens between
//!   a fault and its resurrection: block and rebuild synchronously
//!   (default), serve the healthy shards and mark the affected queries
//!   stale, or fail fast with a typed [`EngineError`] from the `try_*`
//!   paths.
//!
//! Workers are **persistent**: one spawned thread per shard, living until
//! the engine shuts down. Construction retries a failed spawn once and then
//! degrades to fewer shards (counted in [`FaultStats::spawn_retries`] /
//! [`FaultStats::spawn_fallbacks`]) instead of aborting. Shutdown drains
//! each worker's final [`ProcessingStats`] through a handshake before
//! joining, so no timing data is lost on drop.
//!
//! ## Why this is exact
//!
//! Every structure the ITA maintenance paths read is *per query term*:
//! registration and refill descend the query's own inverted lists, roll-up
//! probes them, and arrivals/expirations consult the threshold trees of the
//! arriving document's terms. A shard that keeps complete lists for the
//! union of its queries' terms therefore reproduces, query for query, the
//! exact reads the single-shard engine performs — the shadow index is
//! complete for that term set by construction (filtered inserts for live
//! terms, [`cts_index::InvertedIndex::backfill_term`] when a registration
//! brings a term live mid-stream). The randomized differential test in
//! `tests/sharded_equivalence.rs` enforces byte-identical results and event
//! outcomes against [`ItaEngine`] across shard counts, deregistration and
//! window expiry; `tests/chaos_recovery.rs` enforces exact results (and
//! exact outcomes up to the first fault) with faults injected and recovered
//! mid-stream.

use std::cell::RefCell;
// cts-lint: allow(nondet-iteration, every map below is point-lookup only; nothing iterates their order)
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cts_index::{Document, IndexStats, QueryId, SlidingWindow, Timestamp, WindowKind};

use crate::engine::{Engine, EventOutcome};
use crate::fault::{is_poison_document, EngineError, FaultPolicy, FaultStats, ShardFault};
use crate::ita::{ItaConfig, ItaEngine, ItaQueryStats, QueryMigration};
use crate::monitor::ProcessingStats;
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;

/// A request travelling coordinator → shard on the shard's SPSC channel.
enum ShardRequest {
    /// Register a burst of queries, each under its globally assigned id, in
    /// one round-trip (synchronous). The shard brings all of the burst's
    /// newly-live shadow terms up in a single window merge
    /// ([`ItaEngine::register_batch_with_ids`]) instead of one backfill scan
    /// per query. Single registrations are a one-element burst (the
    /// [`Engine::register_batch`] contract makes that byte-identical).
    RegisterBatch(Vec<(QueryId, ContinuousQuery)>),
    /// Remove a query (synchronous; replies whether it existed).
    Deregister(QueryId),
    /// Process one fanned-out stream event (synchronous; replies with the
    /// shard's [`EventOutcome`]).
    Process(Arc<Document>),
    /// Process a whole fanned-out burst in one round-trip (synchronous;
    /// replies with one [`EventOutcome`] per document, in order). The burst
    /// itself is shared: sending it to `N` shards bumps one refcount per
    /// shard, not one per document per shard.
    ProcessBatch(Arc<[Arc<Document>]>),
    /// Extract a query's complete ITA state for migration (synchronous).
    Extract(QueryId),
    /// Install a migrated query under its existing id (synchronous).
    Install(QueryId, Box<QueryMigration>),
    /// Read a query's current top-k.
    Results(QueryId),
    /// Read a query's ITA bookkeeping snapshot.
    QueryStats(QueryId),
    /// Read the shard's shadow-index statistics.
    IndexStats,
    /// Read the shard's accumulated per-worker processing statistics.
    Stats,
    /// Zero the shard's processing statistics (e.g. after an untimed
    /// fill/register phase, so later readings cover only measured events).
    ResetStats,
    /// Read the shard's valid-document count (identical across shards).
    NumValidDocuments,
    /// Arm one injected fault: the next stream event is applied for real and
    /// the worker then panics mid-request, poisoning the shard until the
    /// coordinator rebuilds it.
    ArmFault,
    /// Rebuild the shard from the coordinator's durable state: a fresh
    /// term-filtered engine, the given queries registered, the given window
    /// replayed. Clears any poisoning.
    Rebuild(Vec<Arc<Document>>, Vec<(QueryId, ContinuousQuery)>),
    /// Audit the shard engine's deep structural invariants (synchronous;
    /// replies [`ShardReply::InvariantsChecked`]). A violation panics inside
    /// the worker's guard and surfaces as a [`ShardReply::Fault`] carrying
    /// the assertion message. Driven by the testkit lockstep runner under
    /// the `invariant-checks` feature; never sent on production paths.
    CheckInvariants,
    /// Drain the worker's final stats and exit the thread (the shutdown
    /// handshake that keeps stats from being lost on drop).
    Shutdown,
    /// Test hook: exit the worker thread *without* replying, exactly as a
    /// killed thread would look from the coordinator's side.
    Crash,
}

/// A reply travelling shard → coordinator, always in request order (each
/// channel pair carries at most one outstanding request per shard).
enum ShardReply {
    Registered,
    Deregistered(bool),
    Processed(EventOutcome),
    /// The per-document outcomes plus the most expensive single event of the
    /// batch as timed by this worker — the coordinator folds the maxima so
    /// batch-fed monitors still learn a true per-event maximum.
    ProcessedBatch(Vec<EventOutcome>, Duration),
    Extracted(Option<Box<QueryMigration>>),
    Installed,
    Results(Vec<RankedDocument>),
    QueryStats(Option<ItaQueryStats>),
    IndexStats(IndexStats),
    Stats(ProcessingStats),
    StatsReset,
    NumValidDocuments(usize),
    Armed,
    Rebuilt,
    /// The shard's engine passed its structural audit.
    InvariantsChecked,
    /// The worker's final stats, sent once in response to
    /// [`ShardRequest::Shutdown`] just before the thread exits.
    ShuttingDown(ProcessingStats),
    /// The request could not be served: the worker caught a panic (or its
    /// state is already gone after an earlier one). The shard is degraded
    /// until the coordinator rebuilds it.
    Fault(ShardFault),
}

/// Renders a caught panic payload as the fault context string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-thread state of one shard worker: the engine (absent while the
/// shard is poisoned), local processing stats, and the fault-injection
/// hooks.
struct ShardWorker {
    shard: usize,
    window: SlidingWindow,
    config: ItaConfig,
    /// `None` while poisoned (a caught panic dropped the engine state).
    engine: Option<ItaEngine>,
    stats: ProcessingStats,
    /// Injected faults armed via [`ShardRequest::ArmFault`]; each is
    /// consumed by one stream event.
    armed_faults: u32,
    /// Poison documents already detonated once, so a document that reaches
    /// this worker again cannot detonate twice.
    seen_poison: HashSet<u64>, // cts-lint: allow(nondet-iteration, membership probes only; never iterated)
    /// The fault that poisoned the shard, replayed to callers until rebuilt.
    pending_fault: Option<ShardFault>,
}

impl ShardWorker {
    fn new(shard: usize, window: SlidingWindow, config: ItaConfig) -> Self {
        Self {
            shard,
            window,
            config,
            engine: Some(ItaEngine::new(window, config)),
            stats: ProcessingStats::default(),
            armed_faults: 0,
            seen_poison: HashSet::new(), // cts-lint: allow(nondet-iteration, membership probes only; never iterated)
            pending_fault: None,
        }
    }

    /// The fault to report while the shard's engine state is gone.
    fn pending(&self) -> ShardFault {
        self.pending_fault.clone().unwrap_or_else(|| ShardFault {
            shard: self.shard,
            context: "shard state is gone (awaiting rebuild)".to_string(),
        })
    }

    /// Serves `op` from the live engine, or replays the pending fault while
    /// the shard is poisoned.
    fn with_engine(&mut self, op: impl FnOnce(&mut ItaEngine) -> ShardReply) -> ShardReply {
        match self.engine.as_mut() {
            Some(engine) => op(engine),
            None => ShardReply::Fault(self.pending()),
        }
    }

    /// Whether this event should detonate: an armed injected fault, or the
    /// first sighting of a poison document. The injection models a
    /// *partial* failure: the event is applied for real, then the panic
    /// fires, so the shard's state is past saving and only cold resurrection
    /// can bring it back.
    fn take_injection(&mut self, doc: &Document) -> bool {
        if self.armed_faults > 0 {
            self.armed_faults -= 1;
            return true;
        }
        is_poison_document(doc) && self.seen_poison.insert(doc.id.0)
    }

    /// Processes and times one stream event. A panic (injected or real)
    /// unwinds to [`ShardWorker::guarded`], which poisons the shard.
    fn process_one(&mut self, doc: Arc<Document>) -> Result<(EventOutcome, Duration), ShardFault> {
        let inject = self.take_injection(&doc);
        let Some(engine) = self.engine.as_mut() else {
            return Err(self.pending());
        };
        let doc_id = doc.id;
        let start = Instant::now(); // cts-lint: allow(clock-in-apply, times the event for stats; never read by engine state)
        let outcome = engine.process_shared(doc);
        if inject {
            // cts-lint: allow(panic-in-hot-path, deliberate injected fault; the recovery machinery under test)
            panic!("injected fault while processing document {}", doc_id.0);
        }
        let elapsed = start.elapsed();
        self.stats.record(&outcome, elapsed);
        Ok((outcome, elapsed))
    }

    /// Serves one request under the worker's panic guard: a panic poisons
    /// the shard and becomes a [`ShardReply::Fault`] instead of unwinding
    /// the thread.
    fn guarded(&mut self, request: ShardRequest) -> ShardReply {
        match catch_unwind(AssertUnwindSafe(|| self.handle(request))) {
            Ok(reply) => reply,
            Err(payload) => {
                let fault = ShardFault {
                    shard: self.shard,
                    context: panic_message(payload.as_ref()),
                };
                self.engine = None;
                self.pending_fault = Some(fault.clone());
                ShardReply::Fault(fault)
            }
        }
    }

    fn handle(&mut self, request: ShardRequest) -> ShardReply {
        match request {
            ShardRequest::RegisterBatch(batch) => self.with_engine(|engine| {
                engine.register_batch_with_ids(batch);
                ShardReply::Registered
            }),
            ShardRequest::Deregister(qid) => {
                self.with_engine(|engine| ShardReply::Deregistered(engine.deregister(qid)))
            }
            ShardRequest::Process(doc) => match self.process_one(doc) {
                Ok((outcome, _)) => ShardReply::Processed(outcome),
                Err(fault) => ShardReply::Fault(fault),
            },
            ShardRequest::ProcessBatch(docs) => {
                // One channel round-trip covers the whole burst; the worker
                // still processes and times each event individually, so the
                // outcomes and the per-worker stats are exactly the
                // per-event loop's. A mid-batch fault fails the whole batch
                // reply (the shard is degraded anyway).
                let mut max_event = Duration::ZERO;
                let mut outcomes = Vec::with_capacity(docs.len());
                for doc in docs.iter() {
                    match self.process_one(Arc::clone(doc)) {
                        Ok((outcome, elapsed)) => {
                            max_event = max_event.max(elapsed);
                            outcomes.push(outcome);
                        }
                        Err(fault) => return ShardReply::Fault(fault),
                    }
                }
                ShardReply::ProcessedBatch(outcomes, max_event)
            }
            ShardRequest::Extract(qid) => self.with_engine(|engine| {
                ShardReply::Extracted(engine.extract_query(qid).map(Box::new))
            }),
            ShardRequest::Install(qid, migration) => self.with_engine(|engine| {
                engine.install_query(qid, *migration);
                ShardReply::Installed
            }),
            ShardRequest::Results(qid) => {
                self.with_engine(|engine| ShardReply::Results(engine.current_results(qid)))
            }
            ShardRequest::QueryStats(qid) => {
                self.with_engine(|engine| ShardReply::QueryStats(engine.query_stats(qid)))
            }
            ShardRequest::IndexStats => {
                self.with_engine(|engine| ShardReply::IndexStats(engine.index_stats()))
            }
            ShardRequest::Stats => ShardReply::Stats(self.stats),
            ShardRequest::ResetStats => {
                self.stats = ProcessingStats::default();
                ShardReply::StatsReset
            }
            ShardRequest::NumValidDocuments => self
                .with_engine(|engine| ShardReply::NumValidDocuments(engine.num_valid_documents())),
            ShardRequest::ArmFault => {
                self.armed_faults += 1;
                ShardReply::Armed
            }
            // A violation panics inside the audit; `guarded` converts it
            // into a `Fault` reply carrying the assertion message.
            ShardRequest::CheckInvariants => self.with_engine(|engine| {
                engine.check_invariants();
                ShardReply::InvariantsChecked
            }),
            ShardRequest::Rebuild(window_docs, queries) => {
                // Cold resurrection from the coordinator's durable state:
                // register the queries, then replay the window as arrivals.
                // The mirror holds only currently-valid documents, so the
                // replay triggers no expirations; no injection check and no
                // stats recording — recovery work is not stream work.
                let mut engine = ItaEngine::new(self.window, self.config);
                engine.register_batch_with_ids(queries);
                for doc in window_docs {
                    engine.process_shared(doc);
                }
                self.engine = Some(engine);
                self.pending_fault = None;
                self.armed_faults = 0;
                ShardReply::Rebuilt
            }
            ShardRequest::Shutdown | ShardRequest::Crash => {
                // cts-lint: allow(panic-in-hot-path, the worker loop intercepts lifecycle requests before handle)
                unreachable!("lifecycle requests are handled by the worker loop")
            }
        }
    }
}

/// The persistent worker loop: one guarded [`ShardWorker`] driven by the
/// shard's request channel until the coordinator hangs up or sends the
/// shutdown handshake. A panic while serving a request is caught and
/// reported as [`ShardReply::Fault`]; it never unwinds the thread.
fn worker_loop(
    shard: usize,
    window: SlidingWindow,
    config: ItaConfig,
    requests: Receiver<ShardRequest>,
    replies: Sender<ShardReply>,
) {
    let mut worker = ShardWorker::new(shard, window, config);
    while let Ok(request) = requests.recv() {
        let reply = match request {
            ShardRequest::Shutdown => {
                // Final-stats handshake: surrendering the accumulated stats
                // in the reply is what keeps them from dying with the
                // thread.
                let _ = replies.send(ShardReply::ShuttingDown(worker.stats));
                return;
            }
            ShardRequest::Crash => return,
            request => worker.guarded(request),
        };
        if replies.send(reply).is_err() {
            // The coordinator is gone; nothing left to serve.
            break;
        }
    }
}

/// Spawns `requested` workers through `spawn`, assigning contiguous slot
/// indices. A failed spawn is retried once; a slot that fails twice is
/// dropped (the engine degrades to fewer shards) instead of aborting
/// construction. Returns the spawned handles plus the retry and fallback
/// counts for [`FaultStats::spawn_retries`] / [`FaultStats::spawn_fallbacks`].
fn spawn_with_retry<T, E>(
    requested: usize,
    spawn: &mut dyn FnMut(usize) -> Result<T, E>,
) -> (Vec<T>, u64, u64) {
    let mut spawned = Vec::with_capacity(requested);
    let mut retries = 0u64;
    let mut fallbacks = 0u64;
    for _ in 0..requested {
        // Slots stay contiguous: a dropped slot's index is reused by the
        // next attempt, so shard indices always equal 0..spawned.len().
        let slot = spawned.len();
        match spawn(slot) {
            Ok(handle) => spawned.push(handle),
            Err(_) => {
                retries += 1;
                match spawn(slot) {
                    Ok(handle) => spawned.push(handle),
                    Err(_) => fallbacks += 1,
                }
            }
        }
    }
    (spawned, retries, fallbacks)
}

/// Policy of the coordinator's skew-aware query rebalancer.
///
/// The coordinator evaluates balance whenever the load distribution can have
/// changed and a migration is safe — after a registration, after a
/// deregistration and after each processed batch, never inside an event —
/// and migrates queries from the heaviest to the lightest shard while
/// **both** hold:
///
/// * the heaviest shard's query count exceeds
///   `max_over_ideal × (num_queries / shards)` (the uniform share), and
/// * moving one query actually reduces imbalance
///   (`heaviest − lightest ≥ 2`).
///
/// Each migration strictly decreases the load distribution's sum of squares,
/// so a rebalance pass always terminates; `max_migrations_per_check` is a
/// safety valve bounding how much migration cost (state transfer plus
/// shadow-list backfill over the window) a single boundary may absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Whether the rebalancer runs at all. Disabled, placement is the
    /// static hash of [`ShardedItaEngine::shard_of`] forever.
    pub enabled: bool,
    /// Trigger ratio over the uniform per-shard query count. Must be at
    /// least 1; values close to 1 level aggressively, larger values tolerate
    /// more skew before paying migration cost.
    pub max_over_ideal: f64,
    /// Upper bound on migrations performed per balance check.
    pub max_migrations_per_check: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_over_ideal: 1.25,
            max_migrations_per_check: usize::MAX,
        }
    }
}

impl RebalanceConfig {
    /// A configuration with rebalancing switched off (static hash
    /// placement).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One shard's channels and thread handle, as owned by the coordinator.
#[derive(Debug)]
struct ShardHandle {
    sender: Sender<ShardRequest>,
    receiver: Receiver<ShardReply>,
    thread: Option<JoinHandle<()>>,
}

/// Fault counters and per-shard degradation flags, behind a [`RefCell`] so
/// the `&self` read paths (which may *observe* a fault but cannot repair
/// it) can still account for what they saw. The engine is not `Sync` (its
/// channel `Sender`s already are not), so the single-threaded `RefCell`
/// discipline costs nothing.
#[derive(Debug)]
struct FaultState {
    stats: FaultStats,
    degraded: Vec<bool>,
}

/// The paper's ITA, executed across `N` query-partitioned worker shards
/// with panic isolation and supervised recovery.
///
/// Implements [`Engine`] with results and event outcomes byte-identical to
/// the single-shard [`ItaEngine`] over any fault-free stream. Through worker
/// faults the results, arrivals and expirations stay byte-identical; the
/// work counters of a cold-resurrected shard may differ. See the module
/// docs for the partitioning rule, the fan-out and batch protocols, the
/// skew-aware rebalancer, the fault model and the exactness argument.
#[derive(Debug)]
pub struct ShardedItaEngine {
    /// Per-shard channels + thread handles. Workers are respawned in place
    /// on cold resurrection, so the vector length is the shard count.
    workers: Vec<ShardHandle>,
    window: SlidingWindow,
    config: ItaConfig,
    rebalance: RebalanceConfig,
    policy: FaultPolicy,
    /// The routing table: which shard currently hosts each registered query.
    /// Starts as the hash placement of [`ShardedItaEngine::shard_of`];
    /// migrations move entries.
    assignment: HashMap<QueryId, usize>, // cts-lint: allow(nondet-iteration, point lookups only; never iterated)
    /// Per-shard resident query ids (registration order). `placement[s].len()`
    /// is shard `s`'s query load.
    placement: Vec<Vec<QueryId>>,
    /// Durable copy of every registered query — with `placement` and
    /// `mirror`, everything cold resurrection needs. Updated **before** any
    /// fan-out, so a request lost to a crashed worker is still
    /// reconstructible.
    registry: HashMap<QueryId, ContinuousQuery>, // cts-lint: allow(nondet-iteration, indexed in placement order; never iterated)
    /// Durable mirror of the sliding window (oldest first), pruned with the
    /// exact policy the workers apply. The `Arc`s are shared with the
    /// workers' stores, so the mirror costs pointers, not documents.
    mirror: VecDeque<Arc<Document>>,
    fault_state: RefCell<FaultState>,
    /// Total queries migrated by the rebalancer since construction.
    migrations: u64,
    /// Most expensive single event seen inside any processed batch, as timed
    /// by the workers (max over shards and batches). This is what
    /// [`Engine::batched_max_event_time`] reports; cleared by
    /// [`ShardedItaEngine::reset_shard_stats`].
    batched_max_event: Duration,
    num_queries: usize,
    next_query: u32,
    clock: Timestamp,
}

impl ShardedItaEngine {
    /// Creates an engine with `shards` persistent worker shards, each
    /// running a term-filtered [`ItaEngine`] under the given window policy
    /// and configuration, with the default [`RebalanceConfig`] and
    /// [`FaultPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(window: SlidingWindow, config: ItaConfig, shards: usize) -> Self {
        Self::with_rebalance(window, config, shards, RebalanceConfig::default())
    }

    /// Creates an engine with an explicit rebalancing policy.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `rebalance.max_over_ideal < 1`.
    pub fn with_rebalance(
        window: SlidingWindow,
        config: ItaConfig,
        shards: usize,
        rebalance: RebalanceConfig,
    ) -> Self {
        Self::with_faults(window, config, shards, rebalance, FaultPolicy::default())
    }

    /// Creates an engine with explicit rebalancing and degraded-mode
    /// policies. A worker spawn that fails is retried once and then its
    /// shard is dropped — the engine degrades to fewer shards (counted in
    /// [`FaultStats::spawn_fallbacks`]) rather than aborting.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, if `rebalance.max_over_ideal < 1`, or if
    /// not a single worker could be spawned.
    pub fn with_faults(
        window: SlidingWindow,
        config: ItaConfig,
        shards: usize,
        rebalance: RebalanceConfig,
        policy: FaultPolicy,
    ) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        assert!(
            rebalance.max_over_ideal >= 1.0,
            "a rebalance trigger below the uniform share would thrash"
        );
        let mut spawn = |slot: usize| Self::spawn_worker(slot, window, config);
        let (workers, spawn_retries, spawn_fallbacks) = spawn_with_retry(shards, &mut spawn);
        assert!(
            !workers.is_empty(),
            "could not spawn any shard worker (all {shards} spawn attempts failed twice)"
        );
        if spawn_fallbacks > 0 {
            eprintln!(
                "cts-shard: degraded to {} of {} requested shards ({} spawn attempts failed twice)",
                workers.len(),
                shards,
                spawn_fallbacks
            );
        }
        let spawned = workers.len();
        Self {
            workers,
            window,
            config,
            rebalance,
            policy,
            assignment: HashMap::new(), // cts-lint: allow(nondet-iteration, point lookups only; never iterated)
            placement: vec![Vec::new(); spawned],
            registry: HashMap::new(), // cts-lint: allow(nondet-iteration, indexed in placement order; never iterated)
            mirror: VecDeque::new(),
            fault_state: RefCell::new(FaultState {
                stats: FaultStats {
                    spawn_retries,
                    spawn_fallbacks,
                    ..FaultStats::default()
                },
                degraded: vec![false; spawned],
            }),
            migrations: 0,
            batched_max_event: Duration::ZERO,
            num_queries: 0,
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    fn spawn_worker(
        shard: usize,
        window: SlidingWindow,
        config: ItaConfig,
    ) -> std::io::Result<ShardHandle> {
        let (request_tx, request_rx) = std::sync::mpsc::channel();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name(format!("cts-shard-{shard}"))
            .spawn(move || worker_loop(shard, window, config, request_rx, reply_tx))?;
        Ok(ShardHandle {
            sender: request_tx,
            receiver: reply_rx,
            thread: Some(thread),
        })
    }

    /// Number of worker shards (after any construction-time spawn
    /// fallbacks).
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// The per-shard ITA configuration.
    pub fn config(&self) -> ItaConfig {
        self.config
    }

    /// The configured rebalancing policy.
    pub fn rebalance_config(&self) -> RebalanceConfig {
        self.rebalance
    }

    /// The configured degraded-mode policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Replaces the rebalancing policy at runtime. Takes effect at the next
    /// balance check (the next registration, deregistration or batch
    /// boundary) — an already-skewed placement is repaired then, not
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if `rebalance.max_over_ideal < 1`.
    pub fn set_rebalance_config(&mut self, rebalance: RebalanceConfig) {
        assert!(
            rebalance.max_over_ideal >= 1.0,
            "a rebalance trigger below the uniform share would thrash"
        );
        self.rebalance = rebalance;
    }

    /// Total queries the rebalancer has migrated between shards.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Per-shard resident query counts, in shard order — the load measure
    /// the rebalancer levels.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.placement.iter().map(Vec::len).collect()
    }

    /// The shard currently hosting `query`, if it is registered. This is the
    /// routing table every query-addressed request consults; it starts at
    /// the hash placement of [`ShardedItaEngine::shard_of`] and diverges
    /// from it once the rebalancer migrates the query.
    pub fn assigned_shard(&self, query: QueryId) -> Option<usize> {
        self.assignment.get(&query).copied()
    }

    /// The **initial placement** rule: which shard a freshly registered
    /// `query` is routed to (the rebalancer may move it later —
    /// [`ShardedItaEngine::assigned_shard`] is the live routing table).
    /// Fibonacci-hashing the id spreads both sequential registration order
    /// and arbitrary (churned) id sets evenly across shards, and stays
    /// stable for a given id across deregistrations. The shard is taken from
    /// the hash's **high** bits via a multiply-shift — `hash % N` would keep
    /// only the low bits, which for power-of-two `N` degenerate to a
    /// permutation of the id's own low bits (an all-even surviving id set
    /// would then occupy only half the shards).
    pub fn shard_of(&self, query: QueryId) -> usize {
        let hashed = (u64::from(query.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((u128::from(hashed) * self.workers.len() as u128) >> 64) as usize
    }

    /// Whether `query` is registered but hosted on a degraded shard — its
    /// reported results are stale (empty) until
    /// [`ShardedItaEngine::recover_degraded`] resurrects the shard. Only
    /// observable under [`FaultPolicy::ServeDegraded`] (or
    /// [`FaultPolicy::FailFast`] before an explicit recovery).
    pub fn query_is_stale(&self, query: QueryId) -> bool {
        self.assigned_shard(query)
            .is_some_and(|shard| self.is_degraded(shard))
    }

    fn is_degraded(&self, shard: usize) -> bool {
        self.fault_state.borrow().degraded[shard]
    }

    fn any_degraded(&self) -> bool {
        self.fault_state.borrow().degraded.iter().any(|d| *d)
    }

    /// Marks `shard` degraded after a worker panic or disconnect. A fault
    /// is counted when a healthy shard goes down, so `faults` equals
    /// `recoveries` plus the currently degraded shards.
    fn mark_degraded(&self, shard: usize) {
        let mut state = self.fault_state.borrow_mut();
        if !state.degraded[shard] {
            state.stats.faults += 1;
            state.degraded[shard] = true;
        }
    }

    /// Sends one request to `shard`, marking it degraded on disconnect.
    fn send(&self, shard: usize, request: ShardRequest) -> Result<(), EngineError> {
        if self.workers[shard].sender.send(request).is_err() {
            self.mark_degraded(shard);
            return Err(EngineError::ShardUnavailable { shard });
        }
        Ok(())
    }

    /// Receives one reply from `shard`, converting faults/disconnects into
    /// typed errors (marking the shard degraded).
    fn recv_reply(&self, shard: usize) -> Result<ShardReply, EngineError> {
        match self.workers[shard].receiver.recv() {
            Ok(ShardReply::Fault(fault)) => {
                self.mark_degraded(shard);
                Err(EngineError::ShardFault(fault))
            }
            Ok(reply) => Ok(reply),
            Err(_) => {
                self.mark_degraded(shard);
                Err(EngineError::ShardUnavailable { shard })
            }
        }
    }

    /// Sends one request to `shard` and blocks for its reply.
    fn call_shard(&self, shard: usize, request: ShardRequest) -> Result<ShardReply, EngineError> {
        self.send(shard, request)?;
        self.recv_reply(shard)
    }

    /// Applies the degraded-mode policy to shards degraded by *previous*
    /// operations, at the start of every mutating operation.
    fn ensure_serviceable(&mut self) -> Result<(), EngineError> {
        if !self.any_degraded() {
            return Ok(());
        }
        match self.policy {
            FaultPolicy::BlockUntilRecovered => self.recover_degraded().map(|_| ()),
            FaultPolicy::ServeDegraded => Ok(()),
            FaultPolicy::FailFast => {
                let state = self.fault_state.borrow();
                match state.degraded.iter().position(|d| *d) {
                    Some(shard) => Err(EngineError::ShardUnavailable { shard }),
                    None => Ok(()),
                }
            }
        }
    }

    /// Applies the degraded-mode policy to a fault observed *during* the
    /// current operation (the shard is already marked degraded).
    fn handle_shard_failure(&mut self, error: EngineError) -> Result<(), EngineError> {
        match self.policy {
            FaultPolicy::FailFast => Err(error),
            FaultPolicy::BlockUntilRecovered => self.recover_degraded().map(|_| ()),
            FaultPolicy::ServeDegraded => Ok(()),
        }
    }

    /// Resurrects every degraded shard from the durable registry + window
    /// mirror, returning how many shards were rebuilt. Under
    /// [`FaultPolicy::BlockUntilRecovered`] this happens automatically; the
    /// other policies require this explicit call.
    pub fn recover_degraded(&mut self) -> Result<usize, EngineError> {
        let degraded: Vec<usize> = {
            let state = self.fault_state.borrow();
            state
                .degraded
                .iter()
                .enumerate()
                .filter(|(_, d)| **d)
                .map(|(shard, _)| shard)
                .collect()
        };
        let mut recovered = 0;
        for shard in degraded {
            self.resurrect(shard)?;
            recovered += 1;
        }
        Ok(recovered)
    }

    /// Cold resurrection of one shard: respawn the worker thread if it is
    /// gone, then rebuild its engine from the durable registry and window
    /// mirror. Rebuilt results are exact; re-derived thresholds (and hence
    /// future work counters) are not guaranteed to match a fault-free
    /// history — see DESIGN.md §10.
    fn resurrect(&mut self, shard: usize) -> Result<(), EngineError> {
        let start = Instant::now(); // cts-lint: allow(clock-in-apply, measures recovery cost only; never read by engine state)
        let queries: Vec<(QueryId, ContinuousQuery)> = self.placement[shard]
            .iter()
            .map(|qid| (*qid, self.registry[qid].clone()))
            .collect();
        let window_docs: Vec<Arc<Document>> = self.mirror.iter().cloned().collect();
        let request = ShardRequest::Rebuild(window_docs, queries);
        if let Err(failed_send) = self.workers[shard].sender.send(request) {
            // The thread is gone, not just poisoned: respawn, then resend.
            let request = failed_send.0;
            self.respawn(shard)?;
            self.workers[shard].sender.send(request).map_err(|_| {
                self.mark_degraded(shard);
                EngineError::ShardUnavailable { shard }
            })?;
        }
        match self.recv_reply(shard)? {
            ShardReply::Rebuilt => {
                let mut state = self.fault_state.borrow_mut();
                state.degraded[shard] = false;
                state.stats.recoveries += 1;
                state.stats.recovery_micros += start.elapsed().as_micros() as u64;
                Ok(())
            }
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        }
    }

    /// Replaces a dead worker thread with a fresh one (empty engine, same
    /// shard index), retrying the spawn once. The caller follows up with a
    /// [`ShardRequest::Rebuild`].
    fn respawn(&mut self, shard: usize) -> Result<(), EngineError> {
        if let Some(thread) = self.workers[shard].thread.take() {
            // The thread already exited (its channel disconnected); reap it.
            let _ = thread.join();
        }
        let handle = Self::spawn_worker(shard, self.window, self.config).or_else(|_| {
            self.fault_state.borrow_mut().stats.spawn_retries += 1;
            Self::spawn_worker(shard, self.window, self.config)
        });
        match handle {
            Ok(handle) => {
                self.workers[shard] = handle;
                Ok(())
            }
            Err(_) => Err(EngineError::ShardUnavailable { shard }),
        }
    }

    /// Appends `doc` to the durable window mirror and prunes it with the
    /// exact policy the workers apply, returning how many documents expired
    /// (cross-checked against the shards' outcomes in debug builds).
    fn push_mirror(&mut self, doc: Arc<Document>) -> usize {
        let now = doc.arrival;
        self.mirror.push_back(doc);
        let before = self.mirror.len();
        match self.window.kind() {
            WindowKind::CountBased { size } => {
                while self.mirror.len() > size {
                    self.mirror.pop_front();
                }
            }
            WindowKind::TimeBased { duration_micros } => {
                let cutoff = now.as_micros().saturating_sub(duration_micros);
                while self
                    .mirror
                    .front()
                    .is_some_and(|doc| doc.arrival.as_micros() < cutoff)
                {
                    self.mirror.pop_front();
                }
            }
        }
        before - self.mirror.len()
    }

    /// The healthy shard with the fewest resident queries (registration
    /// reroute target while another shard is degraded).
    fn lightest_healthy_shard(&self) -> Option<usize> {
        let state = self.fault_state.borrow();
        (0..self.workers.len())
            .filter(|&shard| !state.degraded[shard])
            .min_by_key(|&shard| self.placement[shard].len())
    }

    /// Fallible single-event processing: the `try_*` twin of
    /// [`Engine::process_document`]. Under
    /// [`FaultPolicy::BlockUntilRecovered`] (the default) a mid-event fault
    /// is repaired before returning: the rebuilt shard's results include
    /// the event, and the returned outcome keeps the arrival and the
    /// expirations but lacks the faulted shard's work counters (a worker
    /// found dead *before* the event is rebuilt and resent it, so nothing
    /// is lost). Under [`FaultPolicy::ServeDegraded`] the healthy shards'
    /// partial outcome is returned; under [`FaultPolicy::FailFast`] the
    /// first fault surfaces as a typed error.
    pub fn try_process(&mut self, doc: Document) -> Result<EventOutcome, EngineError> {
        self.ensure_serviceable()?;
        self.clock = doc.arrival;
        let doc = Arc::new(doc);
        let shards = self.workers.len();
        let mut sent = vec![false; shards];
        let mut first_error: Option<EngineError> = None;
        for (shard, sent) in sent.iter_mut().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.send(shard, ShardRequest::Process(Arc::clone(&doc))) {
                Ok(()) => *sent = true,
                Err(err) => {
                    let mut unresolved = Some(err);
                    // The worker died before seeing the event. The mirror
                    // does not contain it yet, so a rebuild here restores
                    // the exact pre-event state, and resending makes the
                    // restored shard process the event like every other
                    // shard — the outcome is fully preserved.
                    if self.policy == FaultPolicy::BlockUntilRecovered
                        && self.resurrect(shard).is_ok()
                        && self
                            .send(shard, ShardRequest::Process(Arc::clone(&doc)))
                            .is_ok()
                    {
                        *sent = true;
                        unresolved = None;
                    }
                    if let Some(err) = unresolved {
                        first_error.get_or_insert(err);
                    }
                }
            }
        }
        // The event becomes durable before outcomes are read: any recovery
        // from here on replays it from the mirror.
        let expired = self.push_mirror(Arc::clone(&doc));
        let mut merged: Option<EventOutcome> = None;
        for (shard, &sent) in sent.iter().enumerate() {
            if !sent {
                continue;
            }
            match self.recv_reply(shard) {
                Ok(ShardReply::Processed(outcome)) => {
                    debug_assert_eq!(
                        outcome.expired, expired,
                        "mirror disagreed with a shard's expirations"
                    );
                    match merged.as_mut() {
                        Some(into) => into.merge_shard(&outcome),
                        None => merged = Some(outcome),
                    }
                }
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_error {
            self.handle_shard_failure(err)?;
        }
        if self.policy == FaultPolicy::ServeDegraded && self.any_degraded() {
            self.fault_state.borrow_mut().stats.events_during_degraded += 1;
        }
        Ok(merged.unwrap_or(EventOutcome {
            arrived: doc.id,
            expired,
            ..EventOutcome::default()
        }))
    }

    /// Fallible burst processing: the `try_*` twin of
    /// [`Engine::process_batch`], with the same policy semantics as
    /// [`ShardedItaEngine::try_process`]. A mid-batch fault loses the
    /// faulted shard's work counters for the whole batch; its state is
    /// rebuilt post-batch from the mirror, which already holds the batch, so
    /// results stay exact.
    pub fn try_process_batch(
        &mut self,
        docs: Vec<Document>,
    ) -> Result<Vec<EventOutcome>, EngineError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_serviceable()?;
        if let Some(last) = docs.last() {
            self.clock = last.arrival;
        }
        let docs: Arc<[Arc<Document>]> = docs.into_iter().map(Arc::new).collect();
        let shards = self.workers.len();
        let mut sent = vec![false; shards];
        let mut first_error: Option<EngineError> = None;
        for (shard, sent) in sent.iter_mut().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.send(shard, ShardRequest::ProcessBatch(Arc::clone(&docs))) {
                Ok(()) => *sent = true,
                Err(err) => {
                    let mut unresolved = Some(err);
                    if self.policy == FaultPolicy::BlockUntilRecovered
                        && self.resurrect(shard).is_ok()
                        && self
                            .send(shard, ShardRequest::ProcessBatch(Arc::clone(&docs)))
                            .is_ok()
                    {
                        *sent = true;
                        unresolved = None;
                    }
                    if let Some(err) = unresolved {
                        first_error.get_or_insert(err);
                    }
                }
            }
        }
        let expired: Vec<usize> = docs
            .iter()
            .map(|doc| self.push_mirror(Arc::clone(doc)))
            .collect();
        let mut merged: Option<Vec<EventOutcome>> = None;
        let mut batch_max = Duration::ZERO;
        for (shard, &sent) in sent.iter().enumerate() {
            if !sent {
                continue;
            }
            match self.recv_reply(shard) {
                Ok(ShardReply::ProcessedBatch(outcomes, max_event)) => {
                    batch_max = batch_max.max(max_event);
                    match merged.as_mut() {
                        Some(into) => {
                            debug_assert_eq!(
                                outcomes.len(),
                                into.len(),
                                "shards saw different batches"
                            );
                            for (into, outcome) in into.iter_mut().zip(&outcomes) {
                                into.merge_shard(outcome);
                            }
                        }
                        None => merged = Some(outcomes),
                    }
                }
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        self.batched_max_event = self.batched_max_event.max(batch_max);
        if let Some(err) = first_error {
            self.handle_shard_failure(err)?;
        }
        if self.policy == FaultPolicy::ServeDegraded && self.any_degraded() {
            self.fault_state.borrow_mut().stats.events_during_degraded += docs.len() as u64;
        }
        // The batch boundary is a safe point to repair skew: no event is in
        // flight, so a migration cannot split an arrival from its
        // expirations.
        self.maybe_rebalance();
        Ok(merged.unwrap_or_else(|| {
            docs.iter()
                .zip(&expired)
                .map(|(doc, &expired)| EventOutcome {
                    arrived: doc.id,
                    expired,
                    ..EventOutcome::default()
                })
                .collect()
        }))
    }

    /// Fallible registration burst: the `try_*` twin of
    /// [`Engine::register_batch`]. Durable state (registry, placement,
    /// routing) is updated **before** the fan-out, so a worker fault during
    /// registration is recoverable: the rebuild re-registers the batch from
    /// the registry. Under [`FaultPolicy::ServeDegraded`], queries whose
    /// hash shard is degraded are rerouted to the lightest healthy shard.
    /// On error the durable state keeps the minted registrations; a later
    /// [`ShardedItaEngine::recover_degraded`] makes the workers agree.
    pub fn try_register_batch(
        &mut self,
        queries: Vec<ContinuousQuery>,
    ) -> Result<Vec<QueryId>, EngineError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_serviceable()?;
        let shards = self.workers.len();
        if !(0..shards).any(|shard| !self.is_degraded(shard)) {
            return Err(EngineError::ShardUnavailable { shard: 0 });
        }
        let mut per_shard: Vec<Vec<(QueryId, ContinuousQuery)>> = vec![Vec::new(); shards];
        let mut ids = Vec::with_capacity(queries.len());
        for query in queries {
            let qid = QueryId(self.next_query);
            self.next_query += 1;
            let mut shard = self.shard_of(qid);
            if self.is_degraded(shard) {
                shard = self
                    .lightest_healthy_shard()
                    // cts-lint: allow(panic-in-hot-path, guarded by the all-degraded early return above)
                    .expect("a healthy shard exists (checked above)"); // cts-lint: allow(unwrap-in-service, guarded by the all-degraded early return above)
            }
            per_shard[shard].push((qid, query.clone()));
            self.registry.insert(qid, query);
            ids.push(qid);
        }
        // Durable state first: a fault from here on resurrects with the new
        // queries included.
        for (shard, group) in per_shard.iter().enumerate() {
            for (qid, _) in group {
                self.assignment.insert(*qid, shard);
                self.placement[shard].push(*qid);
                self.num_queries += 1;
            }
        }
        // Send every shard's group before awaiting any reply, so the shards
        // run their (window-sized) registration merges in parallel.
        let mut pending = Vec::new();
        let mut first_error: Option<EngineError> = None;
        for (shard, group) in per_shard.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let group = std::mem::take(group);
            match self.send(shard, ShardRequest::RegisterBatch(group)) {
                Ok(()) => pending.push(shard),
                Err(err) => {
                    // No resend needed: the rebuild registers the group
                    // straight from the registry.
                    let mut unresolved = Some(err);
                    if self.policy == FaultPolicy::BlockUntilRecovered
                        && self.resurrect(shard).is_ok()
                    {
                        unresolved = None;
                    }
                    if let Some(err) = unresolved {
                        first_error.get_or_insert(err);
                    }
                }
            }
        }
        for shard in pending {
            match self.recv_reply(shard) {
                Ok(ShardReply::Registered) => {}
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_error {
            self.handle_shard_failure(err)?;
        }
        // One balance check for the whole burst: rebalancing is
        // outcome-invisible (migration is behaviour-preserving), so checking
        // once here instead of after every query changes placement only.
        self.maybe_rebalance();
        Ok(ids)
    }

    /// Fallible deregistration: the `try_*` twin of [`Engine::deregister`],
    /// surfacing [`EngineError::UnknownQuery`] instead of `false`. Durable
    /// state is updated first, so a worker fault during removal is
    /// recoverable (the rebuild simply omits the query); removing a query
    /// hosted on a degraded shard under [`FaultPolicy::ServeDegraded`] is
    /// registry-only — the worker's copy dies with the eventual rebuild.
    pub fn try_deregister(&mut self, query: QueryId) -> Result<bool, EngineError> {
        self.ensure_serviceable()?;
        let Some(shard) = self.assigned_shard(query) else {
            return Err(EngineError::UnknownQuery(query));
        };
        self.assignment.remove(&query);
        self.registry.remove(&query);
        let at = self.placement[shard]
            .iter()
            .position(|&resident| resident == query)
            // cts-lint: allow(panic-in-hot-path, assignment and placement move together; check_invariants audits the agreement)
            .expect("routing table lists the query on its shard"); // cts-lint: allow(unwrap-in-service, a missing placement entry is routing corruption; panicking beats serving wrong shards)
        self.placement[shard].swap_remove(at);
        self.num_queries -= 1;
        if !self.is_degraded(shard) {
            match self.call_shard(shard, ShardRequest::Deregister(query)) {
                Ok(ShardReply::Deregistered(removed)) => {
                    assert!(
                        removed,
                        "routing table said shard {shard} hosts {query}, shard disagreed"
                    );
                }
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    // Durable state already dropped the query; recovery
                    // rebuilds the shard without it.
                    self.handle_shard_failure(err)?;
                }
            }
        }
        self.maybe_rebalance();
        Ok(true)
    }

    /// A query's ITA bookkeeping snapshot, if it is registered and its shard
    /// is healthy (served by the shard currently hosting it; `None` while
    /// the shard is degraded).
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let shard = self.assigned_shard(query)?;
        if self.is_degraded(shard) {
            return None;
        }
        match self.call_shard(shard, ShardRequest::QueryStats(query)) {
            Ok(ShardReply::QueryStats(stats)) => stats,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => None,
        }
    }

    /// Per-shard shadow-index statistics, in shard order. Postings sum to
    /// the sharded system's total index footprint (terms referenced by
    /// queries in two shards are mirrored in both); every healthy shard
    /// reports the same document count. Degraded shards report zeroed
    /// stats.
    pub fn shard_index_stats(&self) -> Vec<IndexStats> {
        self.broadcast_collect(
            || ShardRequest::IndexStats,
            |reply| match reply {
                ShardReply::IndexStats(stats) => stats,
                _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            },
            |_| IndexStats::default(),
        )
    }

    /// Per-shard processing statistics (each worker times its own event
    /// handling), in shard order. Degraded shards report zeroed stats.
    pub fn shard_stats(&self) -> Vec<ProcessingStats> {
        self.broadcast_collect(
            || ShardRequest::Stats,
            |reply| match reply {
                ShardReply::Stats(stats) => stats,
                _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            },
            |_| ProcessingStats::default(),
        )
    }

    /// Zeroes every worker's processing statistics. Call after an untimed
    /// setup phase (window fill, workload registration) so
    /// [`ShardedItaEngine::shard_stats`] and
    /// [`ShardedItaEngine::aggregate_shard_stats`] cover only the events
    /// processed afterwards.
    pub fn reset_shard_stats(&mut self) {
        let acks = self.broadcast_collect(
            || ShardRequest::ResetStats,
            |reply| matches!(reply, ShardReply::StatsReset),
            // A degraded shard's eventual rebuild starts from zeroed stats
            // anyway.
            |_| true,
        );
        assert!(acks.iter().all(|ok| *ok), "shard replied out of order");
        self.batched_max_event = Duration::ZERO;
    }

    /// The exact aggregate of every worker's processing statistics, merged
    /// with [`ProcessingStats::absorb`]. `events` counts each stream event
    /// once per shard (every shard handles every event); `total_time` is the
    /// summed busy time across workers — divide by the wall-clock event time
    /// of an enclosing [`crate::Monitor`] to read parallel utilisation.
    pub fn aggregate_shard_stats(&self) -> ProcessingStats {
        let mut merged = ProcessingStats::default();
        for stats in self.shard_stats() {
            merged.absorb(&stats);
        }
        merged
    }

    /// Consumes the engine, draining and returning the exact aggregate of
    /// the workers' final [`ProcessingStats`] through the shutdown
    /// handshake (what a plain drop would discard).
    pub fn shutdown(mut self) -> ProcessingStats {
        self.drain()
    }

    /// The shutdown path shared by [`ShardedItaEngine::shutdown`] and
    /// `Drop`: handshake each worker's final stats out, close the channels,
    /// join the threads. Idempotent — the second call sees no workers.
    fn drain(&mut self) -> ProcessingStats {
        let mut merged = ProcessingStats::default();
        for mut handle in self.workers.drain(..) {
            if handle.sender.send(ShardRequest::Shutdown).is_ok() {
                while let Ok(reply) = handle.receiver.recv() {
                    if let ShardReply::ShuttingDown(stats) = reply {
                        merged.absorb(&stats);
                        break;
                    }
                }
            }
            if let Some(thread) = handle.thread.take() {
                if thread.join().is_err() && !std::thread::panicking() {
                    // cts-lint: allow(panic-in-hot-path, shutdown path surfacing a worker panic that escaped the guards)
                    panic!("a shard worker panicked; see stderr for the root cause");
                }
            }
        }
        merged
    }

    /// Fans one request to every healthy shard, then collects the replies
    /// in shard order, substituting `fallback` for degraded or faulting
    /// shards (the fan-out/fan-in used for stream events and statistics).
    fn broadcast_collect<T>(
        &self,
        mut request: impl FnMut() -> ShardRequest,
        mut unwrap: impl FnMut(ShardReply) -> T,
        mut fallback: impl FnMut(usize) -> T,
    ) -> Vec<T> {
        let shards = self.workers.len();
        let mut sent = vec![false; shards];
        for (shard, sent) in sent.iter_mut().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            *sent = self.send(shard, request()).is_ok();
        }
        (0..shards)
            .map(|shard| {
                if !sent[shard] {
                    return fallback(shard);
                }
                match self.recv_reply(shard) {
                    Ok(reply) => unwrap(reply),
                    Err(_) => fallback(shard),
                }
            })
            .collect()
    }

    /// Runs one balance check (see [`RebalanceConfig`]): while the heaviest
    /// shard exceeds the trigger ratio over the uniform share **and** a
    /// migration reduces imbalance, move the heaviest shard's most recently
    /// placed query to the lightest shard. Called at load-change and batch
    /// boundaries only — never between an arrival and its expirations — so
    /// migration can never split an event. Skipped entirely while any shard
    /// is degraded (migration would touch unrecovered state).
    fn maybe_rebalance(&mut self) {
        if !self.rebalance.enabled || self.workers.len() < 2 || self.any_degraded() {
            return;
        }
        let ideal = self.num_queries as f64 / self.workers.len() as f64;
        let trigger = self.rebalance.max_over_ideal * ideal;
        for _ in 0..self.rebalance.max_migrations_per_check {
            let Some((heavy, _)) = self
                .placement
                .iter()
                .enumerate()
                .max_by_key(|(_, resident)| resident.len())
            else {
                break;
            };
            let Some((light, _)) = self
                .placement
                .iter()
                .enumerate()
                .min_by_key(|(_, resident)| resident.len())
            else {
                break;
            };
            let (high, low) = (self.placement[heavy].len(), self.placement[light].len());
            if (high as f64) <= trigger || high - low < 2 {
                break;
            }
            let slot = self.placement[heavy].len() - 1;
            if self.migrate(heavy, slot, light).is_err() {
                // The faulting shard is marked degraded; the next
                // operation's policy deals with it.
                break;
            }
        }
    }

    /// Moves the complete ITA state of the query at `placement[from][slot]`
    /// to shard `to` (extract, reroute, install). Outcome-neutral by
    /// construction: the migrated thresholds and result set are installed
    /// verbatim and the receiving shadow index backfills any term that just
    /// became live, so every subsequent event is processed exactly as it
    /// would have been on the old shard. The routing tables move **between**
    /// extract and install, so a fault on either side leaves durable state
    /// pointing at the shard that should (re)build the query.
    fn migrate(&mut self, from: usize, slot: usize, to: usize) -> Result<(), EngineError> {
        let qid = self.placement[from][slot];
        let migration = match self.call_shard(from, ShardRequest::Extract(qid))? {
            ShardReply::Extracted(Some(migration)) => migration,
            ShardReply::Extracted(None) => {
                // cts-lint: allow(panic-in-hot-path, a corrupt routing table is unrecoverable; check_invariants audits it)
                panic!("rebalance: shard {from} does not host {qid} (routing table corrupt)")
            }
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        };
        self.placement[from].swap_remove(slot);
        self.placement[to].push(qid);
        self.assignment.insert(qid, to);
        self.migrations += 1;
        match self.call_shard(to, ShardRequest::Install(qid, migration))? {
            ShardReply::Installed => Ok(()),
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        }
    }

    /// Test hook for the chaos suite: makes `shard`'s worker thread exit
    /// without replying, exactly as a killed thread would look from the
    /// coordinator's side. The next operation that touches the shard
    /// observes the disconnect and applies the fault policy. Returns whether
    /// the crash request reached the worker.
    pub fn inject_disconnect(&mut self, shard: usize) -> bool {
        let shard = shard % self.workers.len();
        self.workers[shard].sender.send(ShardRequest::Crash).is_ok()
    }
}

impl Engine for ShardedItaEngine {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        self.register_batch(vec![query])
            .pop()
            // cts-lint: allow(panic-in-hot-path, register_batch returns exactly one id per query)
            .expect("one id per registered query") // cts-lint: allow(unwrap-in-service, register_batch returns exactly one id per query)
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        self.try_register_batch(queries)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not register: {err}"))
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        match self.try_deregister(query) {
            Ok(removed) => removed,
            Err(EngineError::UnknownQuery(_)) => false,
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            Err(err) => panic!("sharded engine could not deregister: {err}"),
        }
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.try_process(doc)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the event: {err}"))
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        self.try_process_batch(docs)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the batch: {err}"))
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        let Some(shard) = self.assigned_shard(query) else {
            return Vec::new();
        };
        if self.is_degraded(shard) {
            // Stale under ServeDegraded: the caller can distinguish "no
            // matches" from "shard down" via `query_is_stale`.
            return Vec::new();
        }
        match self.call_shard(shard, ShardRequest::Results(query)) {
            Ok(ShardReply::Results(results)) => results,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => Vec::new(),
        }
    }

    fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn num_valid_documents(&self) -> usize {
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.call_shard(shard, ShardRequest::NumValidDocuments) {
                Ok(ShardReply::NumValidDocuments(count)) => return count,
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(_) => continue,
            }
        }
        // Every worker is down; the mirror is the authoritative window.
        self.mirror.len()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "sharded-ita"
    }

    fn batched_max_event_time(&self) -> Option<Duration> {
        Some(self.batched_max_event)
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        let shard = shard % self.workers.len();
        if self.is_degraded(shard) {
            return false;
        }
        match self.call_shard(shard, ShardRequest::ArmFault) {
            Ok(ShardReply::Armed) => true,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => false,
        }
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        let state = self.fault_state.borrow();
        let mut stats = state.stats;
        stats.degraded_shards = state.degraded.iter().filter(|down| **down).count();
        Some(stats)
    }

    /// Audits the coordinator's durable state (registry, routing table and
    /// placement must agree exactly — they are what cold resurrection
    /// rebuilds shards from) and then has every healthy worker audit its own
    /// engine via [`ShardRequest::CheckInvariants`]; a worker-side violation
    /// comes back as a fault carrying the assertion message and is re-raised
    /// here. Degraded shards are skipped — their state is gone by
    /// definition and the rebuild starts from the durable state just
    /// audited.
    fn check_invariants(&self) {
        assert_eq!(
            self.assignment.len(),
            self.num_queries,
            "routing table size disagrees with the query count"
        );
        assert_eq!(
            self.registry.len(),
            self.num_queries,
            "query registry size disagrees with the query count"
        );
        let placed: usize = self.placement.iter().map(Vec::len).sum();
        assert_eq!(
            placed, self.num_queries,
            "placement tables hold {placed} residents over {} queries",
            self.num_queries
        );
        for (shard, resident) in self.placement.iter().enumerate() {
            for qid in resident {
                assert_eq!(
                    self.assignment.get(qid).copied(),
                    Some(shard),
                    "{qid} is resident on shard {shard} but routed elsewhere"
                );
                assert!(
                    self.registry.contains_key(qid),
                    "{qid} is placed but missing from the durable registry"
                );
            }
        }
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.call_shard(shard, ShardRequest::CheckInvariants) {
                Ok(ShardReply::InvariantsChecked) => {}
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    // cts-lint: allow(panic-in-hot-path, audit-only path re-raising a worker-side assertion)
                    panic!("shard {shard} failed its invariant audit: {err}")
                }
            }
        }
    }
}

impl Drop for ShardedItaEngine {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::assert_lockstep_event;
    use cts_index::DocId;
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    fn query(terms: &[(u32, f64)], k: usize) -> ContinuousQuery {
        ContinuousQuery::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w)), k)
    }

    #[test]
    fn single_shard_locksteps_with_the_plain_engine() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 1);
        let qa = reference.register(query(&[(1, 0.6), (2, 0.8)], 2));
        let qb = sharded.register(query(&[(1, 0.6), (2, 0.8)], 2));
        assert_eq!(qa, qb);
        for i in 0..40u64 {
            let d = doc(i, &[((i % 4) as u32, 0.1 + (i % 6) as f64 * 0.1)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &[qa]);
        }
        assert_eq!(sharded.name(), "sharded-ita");
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.clock(), reference.clock());
        assert_eq!(sharded.num_valid_documents(), 8);
    }

    #[test]
    fn queries_are_spread_across_shards_and_results_survive_routing() {
        let window = SlidingWindow::count_based(16);
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 4);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut qids = Vec::new();
        for t in 0..8u32 {
            let q = query(&[(t % 5, 0.5), (5 + t % 3, 0.5)], 3);
            let qs = sharded.register(q.clone());
            let qr = reference.register(q);
            assert_eq!(qs, qr);
            qids.push(qs);
        }
        // The hash really does use more than one shard for 8 sequential ids.
        let used: std::collections::HashSet<usize> =
            qids.iter().map(|&q| sharded.shard_of(q)).collect();
        assert!(used.len() > 1, "all queries landed on one shard");
        for i in 0..60u64 {
            let d = doc(
                i,
                &[
                    ((i % 7) as u32, 0.1 + (i % 9) as f64 * 0.08),
                    ((3 + i % 4) as u32, 0.3),
                ],
            );
            assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
        }
        assert_eq!(sharded.num_queries(), 8);
        assert!(sharded.deregister(qids[3]));
        assert!(!sharded.deregister(qids[3]));
        assert_eq!(sharded.num_queries(), 7);
        assert!(reference.deregister(qids[3]));
        for i in 60..90u64 {
            let d = doc(i, &[((i % 7) as u32, 0.2), (8, 0.4)]);
            let live: Vec<QueryId> = qids.iter().copied().filter(|&q| q != qids[3]).collect();
            assert_lockstep_event(&mut reference, &mut sharded, &d, &live);
        }
        assert!(sharded.current_results(qids[3]).is_empty());
    }

    #[test]
    fn shard_statistics_aggregate_exactly() {
        let mut sharded =
            ShardedItaEngine::new(SlidingWindow::count_based(6), ItaConfig::default(), 3);
        for t in 0..6u32 {
            sharded.register(query(&[(t, 1.0)], 2));
        }
        let mut events = 0u64;
        for i in 0..25u64 {
            sharded.process_document(doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.1)]));
            events += 1;
        }
        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 3);
        // Every shard sees every event.
        for stats in &per_shard {
            assert_eq!(stats.events, events);
        }
        let merged = sharded.aggregate_shard_stats();
        assert_eq!(merged.events, events * 3);
        assert_eq!(
            merged.total_time,
            per_shard.iter().map(|s| s.total_time).sum()
        );
        // Shadow indexes: same window everywhere, query terms partitioned.
        let index = sharded.shard_index_stats();
        assert!(index.iter().all(|s| s.documents == 6));
        assert!(index.iter().map(|s| s.postings).sum::<usize>() > 0);
        // The queries' stats are served by the owning shard.
        let q0 = QueryId(0);
        assert!(sharded.query_stats(q0).is_some());
        assert!(sharded.query_stats(QueryId(99)).is_none());
        // Resetting zeroes every worker's accumulator; later events are
        // counted from the reset point only.
        sharded.reset_shard_stats();
        assert_eq!(sharded.aggregate_shard_stats(), ProcessingStats::default());
        sharded.process_document(doc(25, &[(0, 0.5)]));
        let after = sharded.shard_stats();
        assert!(after.iter().all(|s| s.events == 1));
    }

    #[test]
    fn hash_partition_spreads_stride_patterned_id_sets() {
        // The failure mode of a low-bits partition: a churned workload whose
        // surviving ids share low bits (all even, or one residue mod 8)
        // collapses onto a fraction of the shards. The multiply-shift over
        // the Fibonacci hash keys on the high bits instead, so such sets
        // still spread.
        let sharded = ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 8);
        for stride in [2u32, 4, 8] {
            let used: std::collections::HashSet<usize> = (0..64u32)
                .map(|i| sharded.shard_of(QueryId(i * stride)))
                .collect();
            assert!(
                used.len() >= 6,
                "stride-{stride} ids reached only {} of 8 shards",
                used.len()
            );
        }
    }

    #[test]
    fn process_batch_matches_the_per_event_loop() {
        let window = SlidingWindow::count_based(10);
        let mut singles = ShardedItaEngine::new(window, ItaConfig::default(), 3);
        let mut batched = ShardedItaEngine::new(window, ItaConfig::default(), 3);
        let mut qids = Vec::new();
        for t in 0..6u32 {
            let q = query(&[(t, 0.5), (6 + t % 2, 0.5)], 2);
            let qa = singles.register(q.clone());
            let qb = batched.register(q);
            assert_eq!(qa, qb);
            qids.push(qa);
        }
        let make = |lo: u64, hi: u64| -> Vec<Document> {
            (lo..hi)
                .map(|i| doc(i, &[((i % 8) as u32, 0.1 + (i % 5) as f64 * 0.15)]))
                .collect()
        };
        for chunk in [(0u64, 7u64), (7, 8), (8, 20), (20, 33)] {
            let batch = make(chunk.0, chunk.1);
            let expected: Vec<EventOutcome> = batch
                .clone()
                .into_iter()
                .map(|d| singles.process_document(d))
                .collect();
            let actual = batched.process_batch(batch);
            assert_eq!(expected, actual, "chunk {chunk:?} diverged");
            for &q in &qids {
                assert_eq!(singles.current_results(q), batched.current_results(q));
            }
        }
        assert_eq!(batched.clock(), singles.clock());
        assert!(batched.process_batch(Vec::new()).is_empty());
    }

    #[test]
    fn rebalancer_levels_an_engineered_skew() {
        let window = SlidingWindow::count_based(12);
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 4);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut qids = Vec::new();
        for t in 0..24u32 {
            let q = query(&[(t % 7, 0.6), (7 + t % 5, 0.4)], 2);
            qids.push(sharded.register(q.clone()));
            reference.register(q);
        }
        for i in 0..30u64 {
            let d = doc(i, &[((i % 12) as u32, 0.1 + (i % 6) as f64 * 0.12)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
        }
        // Concentrate the surviving population on the initial-hash shard 0,
        // then make sure the rebalancer spread it back out.
        let survivors: Vec<QueryId> = qids
            .iter()
            .copied()
            .filter(|&q| sharded.shard_of(q) == 0)
            .collect();
        assert!(survivors.len() >= 2, "need at least two survivors");
        for &q in &qids {
            if !survivors.contains(&q) {
                assert!(sharded.deregister(q));
                assert!(reference.deregister(q));
            }
        }
        assert!(sharded.migrations() > 0, "no migration happened");
        let loads = sharded.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), survivors.len());
        let uniform = survivors.len() as f64 / 4.0;
        assert!(
            *loads.iter().max().unwrap() as f64 <= (2.0 * uniform).max(1.0),
            "loads {loads:?} not within 2x of uniform {uniform}"
        );
        // Routing follows the migrations: some survivor no longer lives on
        // its hash shard, yet every survivor is still routable.
        assert!(survivors
            .iter()
            .any(|&q| sharded.assigned_shard(q) != Some(0)));
        assert!(survivors
            .iter()
            .all(|&q| sharded.assigned_shard(q).is_some()));
        for i in 30..60u64 {
            let d = doc(i, &[((i % 12) as u32, 0.2 + (i % 4) as f64 * 0.2)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &survivors);
        }
    }

    #[test]
    fn disabled_rebalancer_keeps_the_static_hash_placement() {
        let window = SlidingWindow::count_based(8);
        let mut sharded = ShardedItaEngine::with_rebalance(
            window,
            ItaConfig::default(),
            4,
            RebalanceConfig::disabled(),
        );
        assert!(!sharded.rebalance_config().enabled);
        let qids: Vec<QueryId> = (0..16u32)
            .map(|t| sharded.register(query(&[(t % 5, 1.0)], 1)))
            .collect();
        let survivors: Vec<QueryId> = qids
            .iter()
            .copied()
            .filter(|&q| sharded.shard_of(q) == 0)
            .collect();
        for &q in &qids {
            if !survivors.contains(&q) {
                assert!(sharded.deregister(q));
            }
        }
        assert_eq!(sharded.migrations(), 0);
        for &q in &survivors {
            assert_eq!(sharded.assigned_shard(q), Some(0));
        }
        assert_eq!(sharded.shard_loads()[0], survivors.len());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "would thrash")]
    fn sub_uniform_rebalance_trigger_is_rejected() {
        let _ = ShardedItaEngine::with_rebalance(
            SlidingWindow::count_based(4),
            ItaConfig::default(),
            2,
            RebalanceConfig {
                max_over_ideal: 0.5,
                ..RebalanceConfig::default()
            },
        );
    }

    #[test]
    fn dropping_the_engine_joins_its_workers() {
        let handle = {
            let sharded =
                ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 2);
            sharded.num_shards()
        };
        // Reaching here without hanging means the workers exited and the
        // supervisor joined them.
        assert_eq!(handle, 2);
    }

    #[test]
    fn spawn_with_retry_counts_retries_and_keeps_slots_contiguous() {
        // Call 1 (slot 1) fails once then succeeds; calls 3 and 4 both fail,
        // dropping one requested shard.
        let mut calls = 0u32;
        let mut spawn = |slot: usize| -> Result<usize, ()> {
            calls += 1;
            match calls {
                2 | 4 | 5 => Err(()),
                _ => Ok(slot),
            }
        };
        let (spawned, retries, fallbacks) = spawn_with_retry(4, &mut spawn);
        // The engine degrades to 3 shards; their slot indices stay 0..3
        // because a dropped slot's index is reused by the next attempt.
        assert_eq!(spawned, vec![0, 1, 2]);
        assert_eq!(retries, 2);
        assert_eq!(fallbacks, 1);
    }

    #[test]
    fn spawn_with_retry_all_failures_yields_no_workers() {
        let mut spawn = |_slot: usize| -> Result<usize, ()> { Err(()) };
        let (spawned, retries, fallbacks) = spawn_with_retry(3, &mut spawn);
        assert!(spawned.is_empty());
        assert_eq!(retries, 3);
        assert_eq!(fallbacks, 3);
    }

    #[test]
    fn poisoned_worker_surfaces_a_typed_fault_and_resurrects_exactly() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::with_faults(
            window,
            ItaConfig::default(),
            2,
            RebalanceConfig::default(),
            FaultPolicy::FailFast,
        );
        let mut qids = Vec::new();
        for t in 0..6u32 {
            let q = query(&[(t % 4, 0.6), (4 + t % 3, 0.4)], 2);
            let qr = reference.register(q.clone());
            assert_eq!(qr, sharded.register(q));
            qids.push(qr);
        }
        for i in 0..12u64 {
            let d = doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.12)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
        }
        // The armed event is applied, then the worker panics: a typed fault
        // naming the shard, and the shard's engine state is gone.
        assert!(sharded.inject_fault(1));
        let d = doc(12, &[(1, 0.5), (5, 0.3)]);
        reference.process_document(d.clone());
        let fault = match sharded.try_process(d) {
            Err(EngineError::ShardFault(fault)) => fault,
            Err(err) => panic!("expected a shard fault, got {err}"),
            Ok(_) => panic!("the armed fault did not surface"),
        };
        assert_eq!(fault.shard, 1);
        assert!(fault.context.contains("document 12"), "{fault}");
        // The poisoned worker replays that fault to every engine request
        // until it is rebuilt; it is counted once.
        assert!(matches!(
            sharded.call_shard(1, ShardRequest::NumValidDocuments),
            Err(EngineError::ShardFault(ref again)) if *again == fault
        ));
        let stats = sharded.fault_stats().expect("sharded engine tracks faults");
        assert_eq!(
            (stats.faults, stats.recoveries, stats.degraded_shards),
            (1, 0, 1)
        );
        assert!(qids.iter().any(|&q| sharded.query_is_stale(q)));
        // Cold resurrection from the registry and the window mirror (which
        // holds the faulting event) brings back exact results.
        assert_eq!(sharded.recover_degraded().expect("rebuild succeeds"), 1);
        let stats = sharded.fault_stats().expect("sharded engine tracks faults");
        assert_eq!(
            (stats.faults, stats.recoveries, stats.degraded_shards),
            (1, 1, 0)
        );
        for i in 13..40u64 {
            let d = doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.12)]);
            let expected = reference.process_document(d.clone());
            let actual = sharded.process_document(d);
            // Re-derived thresholds may change the work counters, never the
            // event's arrival and expirations or any query's results.
            assert_eq!(expected.arrived, actual.arrived);
            assert_eq!(expected.expired, actual.expired);
            for &q in &qids {
                assert_eq!(reference.current_results(q), sharded.current_results(q));
            }
        }
    }

    #[test]
    fn shutdown_drains_final_worker_stats() {
        let mut sharded =
            ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 3);
        sharded.register(query(&[(0, 1.0)], 1));
        for i in 0..10u64 {
            sharded.process_document(doc(i, &[(0, 0.5)]));
        }
        let merged = sharded.shutdown();
        // Every shard saw every event, and the handshake preserved the
        // counters a plain drop would discard.
        assert_eq!(merged.events, 30);
        assert!(merged.total_time > Duration::ZERO);
    }
}
