//! The fault-injection differential axis: a fault-tolerant
//! [`ShardedItaEngine`] must stay in lockstep with a fault-free
//! single-shard [`ItaEngine`] *through* injected worker panics, poison
//! documents and killed worker threads, across shard counts {1, 2, 4, 8}.
//!
//! Every fault is recovered the one way there is: the poisoned shard is
//! cold-resurrected from the coordinator's query registry and window mirror.
//! That reproduces the *reported top-k* exactly (a function of the window
//! contents) but not ITA's history-dependent thresholds θ and τ — a query
//! registered mid-stream carries thresholds derived from documents that
//! have since expired, which a fresh engine fed only the surviving window
//! cannot reproduce. `window_replay_rebuild_is_not_exact` at the bottom
//! pins this with a concrete divergence (see DESIGN.md §10). The contract
//! is therefore *results-exact*: full [`cts_core::EventOutcome`]s agree
//! until the first fault; from then on arrivals, expirations, query ids,
//! window sizes and every live query's results still agree, while the
//! work counters may not.

use std::time::Duration;

use cts_core::testkit::{generate_script, run_script, Op, RunOptions, ScriptConfig, ScriptRng};
use cts_core::{
    ContinuousQuery, Engine, EventOutcome, FaultPolicy, ItaConfig, ItaEngine, RebalanceConfig,
    ShardedItaEngine,
};
use cts_index::{DocId, Document, QueryId, SlidingWindow, Timestamp};
use cts_text::{TermId, WeightedVector};

fn faulty(window: SlidingWindow, shards: usize, policy: FaultPolicy) -> ShardedItaEngine {
    ShardedItaEngine::with_faults(
        window,
        ItaConfig::default(),
        shards,
        RebalanceConfig::default(),
        policy,
    )
}

/// The part of an outcome the fault contract keeps exact through a
/// recovery: the arrival and the expiration count.
fn visible(outcome: &EventOutcome) -> (DocId, usize) {
    (outcome.arrived, outcome.expired)
}

/// Runs a chaos-storm script over (reference, sharded-with-faults) and
/// asserts lockstep held *and* that every fault the script caused ended in
/// exactly one cold resurrection — a chaos suite that never faults tests
/// nothing.
fn assert_chaos_lockstep(shards: usize, seed: u64) {
    let window = SlidingWindow::count_based(30);
    let config = ScriptConfig {
        events: 160,
        ..ScriptConfig::chaos_storm()
    };
    let script = generate_script(&config, seed);
    let injections = script
        .ops
        .iter()
        .filter(|op| matches!(op, Op::InjectFault { .. }))
        .count();
    assert!(injections > 0, "seed {seed:#x} armed no faults");
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, shards, FaultPolicy::BlockUntilRecovered);
    {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(&mut reference) as Box<dyn Engine>,
            Box::new(&mut sharded),
        ];
        if let Err(failure) = run_script(&mut engines, &script, &RunOptions::default()) {
            panic!("chaos lockstep broke (shards {shards}, seed {seed:#x})\n  {failure}\n{script}");
        }
    }
    let stats = sharded.fault_stats().expect("sharded engines track faults");
    assert!(
        stats.faults > 0,
        "shards {shards}, seed {seed:#x}: chaos script caused no faults"
    );
    assert_eq!(
        stats.faults, stats.recoveries,
        "shards {shards}, seed {seed:#x}: every fault must end in one cold resurrection"
    );
    assert_eq!(
        stats.degraded_shards, 0,
        "shards {shards}, seed {seed:#x}: run ended with degraded shards under BlockUntilRecovered"
    );
}

#[test]
fn chaos_storm_locksteps_across_shard_counts() {
    for shards in [1usize, 2, 4, 8] {
        assert_chaos_lockstep(shards, 0xC4A0_0000 + shards as u64);
    }
    // Three more 4-shard scripts: more seeds where faults land inside
    // batches and registration bursts.
    for seed in [0xC4A0_0101u64, 0xC4A0_0105, 0xC4A0_0107] {
        assert_chaos_lockstep(4, seed);
    }
}

/// One explicit, readable fault-recovery scenario (the differential above
/// is the strong check; this one is the debuggable one): arm a fault, feed
/// a document, and verify the armed shard panicked, was resurrected, and
/// reports the same results as a never-faulted reference.
#[test]
fn injected_fault_is_applied_then_recovered_exactly() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::BlockUntilRecovered);
    let query = ContinuousQuery::from_weights([(TermId(1), 0.7), (TermId(2), 0.3)], 2);
    let qr = reference.register(query.clone());
    let qs = sharded.register(query);
    assert_eq!(qr, qs);
    for i in 0..20u64 {
        if i == 5 || i == 11 {
            assert!(sharded.inject_fault((i % 2) as usize));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(
                TermId(1 + (i % 2) as u32),
                0.1 + (i % 5) as f64 * 0.1,
            )]),
        );
        let expected = reference.process_document(doc.clone());
        let actual = sharded.process_document(doc);
        assert_eq!(visible(&expected), visible(&actual), "event {i} diverged");
        assert_eq!(reference.current_results(qr), sharded.current_results(qs));
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.faults, 2);
    assert_eq!(stats.recoveries, 2);
    assert_eq!(stats.degraded_shards, 0);
}

/// Poison documents detonate once per shard (the event is applied, then the
/// worker panics), are resurrected, and must not re-detonate when the same
/// document is replayed from the window mirror.
#[test]
fn poison_documents_detonate_once_and_recover() {
    let window = SlidingWindow::count_based(6);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::BlockUntilRecovered);
    let query = ContinuousQuery::from_weights([(TermId(3), 1.0)], 2);
    let qr = reference.register(query.clone());
    let qs = sharded.register(query);
    for i in 0..15u64 {
        let mut doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId(3), 0.1 + (i % 4) as f64 * 0.2)]),
        );
        if i == 4 || i == 9 {
            doc = cts_core::poison_document(doc);
        }
        let expected = reference.process_document(doc.clone());
        let actual = sharded.process_document(doc);
        assert_eq!(visible(&expected), visible(&actual), "event {i} diverged");
        assert_eq!(reference.current_results(qr), sharded.current_results(qs));
    }
    let stats = sharded.fault_stats().expect("tracked");
    // Each of the 2 poison docs detonates once in each of the 2 shards.
    assert_eq!(stats.faults, 4);
    assert_eq!(stats.recoveries, 4);
}

/// Faults that fire inside one `process_batch` round-trip: an armed fault
/// detonates on a batch's first document in one shard, and a poison
/// document in the middle of a batch detonates in every shard after the
/// documents before it were applied. The faulted shards' replies are lost
/// for the whole batch, yet every member's arrival and expirations and every
/// query's results must match the fault-free reference, with one cold
/// resurrection per fault.
#[test]
fn faults_inside_a_batch_recover_with_exact_results() {
    for shards in [2usize, 4] {
        let window = SlidingWindow::count_based(12);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = faulty(window, shards, FaultPolicy::BlockUntilRecovered);
        let mut qids = Vec::new();
        for t in 0..10u32 {
            let q =
                ContinuousQuery::from_weights([(TermId(t % 6), 0.6), (TermId(6 + t % 4), 0.4)], 2);
            let qr = reference.register(q.clone());
            assert_eq!(qr, sharded.register(q));
            qids.push(qr);
        }
        let mut next = 0u64;
        for batch in 0..8u64 {
            if batch == 2 {
                assert!(sharded.inject_fault(1));
            }
            let docs: Vec<Document> = (0..7u64)
                .map(|slot| {
                    let i = next + slot;
                    let doc = Document::new(
                        DocId(i),
                        Timestamp::from_millis(i),
                        WeightedVector::from_weights([
                            (TermId((i % 10) as u32), 0.1 + (i % 5) as f64 * 0.15),
                            (TermId((3 + i % 4) as u32), 0.3),
                        ]),
                    );
                    if batch == 5 && slot == 3 {
                        cts_core::poison_document(doc)
                    } else {
                        doc
                    }
                })
                .collect();
            next += docs.len() as u64;
            let expected = reference.process_batch(docs.clone());
            let actual = sharded.process_batch(docs);
            assert_eq!(
                expected.iter().map(visible).collect::<Vec<_>>(),
                actual.iter().map(visible).collect::<Vec<_>>(),
                "{shards} shards: batch {batch} diverged"
            );
            for &q in &qids {
                assert_eq!(
                    reference.current_results(q),
                    sharded.current_results(q),
                    "{shards} shards: results diverged on {q} after batch {batch}"
                );
            }
        }
        let stats = sharded.fault_stats().expect("tracked");
        // The armed fault, plus the poison document once in every shard.
        assert_eq!(stats.faults, 1 + shards as u64, "{shards} shards");
        assert_eq!(stats.recoveries, stats.faults, "{shards} shards");
        assert_eq!(stats.degraded_shards, 0);
    }
}

/// Random faults on a 3-shard engine: every caught panic poisons its
/// shard, and the cold path (registry re-registration + window-mirror
/// replay) must keep every query's results exact under the blocking
/// policy.
#[test]
fn cold_rebuild_restores_exact_results_under_block_policy() {
    let window = SlidingWindow::count_based(10);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 3, FaultPolicy::BlockUntilRecovered);
    let mut rng = ScriptRng::new(0xC01D);
    let mut qids: Vec<QueryId> = Vec::new();
    for t in 0..9u32 {
        let q = ContinuousQuery::from_weights([(TermId(t % 5), 0.6), (TermId(5 + t % 3), 0.4)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    for i in 0..60u64 {
        if rng.chance(0.15) {
            sharded.inject_fault(rng.below(3));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([
                (TermId((i % 8) as u32), 0.1 + (i % 5) as f64 * 0.12),
                (TermId((2 + i % 3) as u32), 0.3),
            ]),
        );
        reference.process_document(doc.clone());
        sharded.process_document(doc);
        for &q in &qids {
            assert_eq!(
                reference.current_results(q),
                sharded.current_results(q),
                "results diverged on {q} at event {i}"
            );
        }
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert!(stats.faults > 0, "no faults fired");
    assert!(stats.recoveries > 0, "no cold resurrection happened");
    assert_eq!(stats.degraded_shards, 0);
}

/// A killed worker thread (disconnect, not panic) is resurrected by the
/// coordinator under the blocking policy, with exact results afterwards.
#[test]
fn killed_worker_is_resurrected_with_exact_results() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::BlockUntilRecovered);
    let mut qids = Vec::new();
    for t in 0..6u32 {
        let q = ContinuousQuery::from_weights([(TermId(t), 1.0)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    for i in 0..30u64 {
        if i == 10 {
            assert!(sharded.inject_disconnect(0));
        }
        if i == 20 {
            assert!(sharded.inject_disconnect(1));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId((i % 6) as u32), 0.2 + (i % 4) as f64 * 0.15)]),
        );
        reference.process_document(doc.clone());
        sharded.process_document(doc);
        for &q in &qids {
            assert_eq!(
                reference.current_results(q),
                sharded.current_results(q),
                "results diverged on {q} at event {i}"
            );
        }
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert!(stats.faults >= 2, "disconnects were not counted as faults");
    assert!(stats.recoveries >= 2, "killed workers were not resurrected");
    assert_eq!(stats.degraded_shards, 0);
    assert_eq!(sharded.num_valid_documents(), 8);
}

/// Under [`FaultPolicy::ServeDegraded`] the healthy shards keep serving:
/// queries on the dead shard go stale (empty results, `query_is_stale`),
/// events are counted in `events_during_degraded`, and an explicit
/// `recover_degraded` brings the shard back with exact results.
#[test]
fn serve_degraded_keeps_healthy_shards_live_until_explicit_recovery() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::ServeDegraded);
    let mut qids = Vec::new();
    for t in 0..8u32 {
        let q = ContinuousQuery::from_weights([(TermId(t % 4), 1.0)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    let feed = |engine: &mut dyn Engine, i: u64| {
        engine.process_document(Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId((i % 4) as u32), 0.2 + (i % 3) as f64 * 0.2)]),
        ));
    };
    for i in 0..10u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
    }
    // Kill shard 0 and keep serving.
    assert!(sharded.inject_fault(0));
    for i in 10..20u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.degraded_shards, 1);
    // The faulting event itself is applied before the panic; after it the
    // coordinator served 9 more events degraded — plus the one that faulted.
    assert_eq!(stats.events_during_degraded, 10);
    let (stale, live): (Vec<QueryId>, Vec<QueryId>) =
        qids.iter().partition(|&&q| sharded.query_is_stale(q));
    assert!(!stale.is_empty(), "no query was hosted on the dead shard");
    assert!(!live.is_empty(), "every query was hosted on the dead shard");
    for &q in &stale {
        assert!(
            sharded.current_results(q).is_empty(),
            "stale {q} served data"
        );
    }
    for &q in &live {
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    // Explicit recovery rebuilds the dead shard from registry + mirror;
    // results come back exact for every query.
    let resurrected = sharded.recover_degraded().expect("recovery succeeds");
    assert_eq!(resurrected, 1);
    assert_eq!(sharded.fault_stats().expect("tracked").degraded_shards, 0);
    for &q in &qids {
        assert!(!sharded.query_is_stale(q));
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    // And the engine is fully live again.
    for i in 20..30u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
        for &q in &qids {
            assert_eq!(reference.current_results(q), sharded.current_results(q));
        }
    }
}

/// Under [`FaultPolicy::FailFast`] a fault surfaces as a typed error from the `try_*` paths, and the engine is usable again after
/// an explicit `recover_degraded`.
#[test]
fn fail_fast_surfaces_typed_errors_and_recovers_on_request() {
    let window = SlidingWindow::count_based(6);
    let mut sharded = faulty(window, 2, FaultPolicy::FailFast);
    let q = sharded.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
    let doc = |i: u64| {
        Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId(1), 0.5)]),
        )
    };
    sharded.try_process(doc(0)).expect("healthy engine serves");
    assert!(sharded.inject_fault(0));
    // The faulting event returns an error naming the shard…
    let err = sharded.try_process(doc(1)).expect_err("fault must surface");
    assert!(
        matches!(err, cts_core::EngineError::ShardFault(ref fault) if fault.shard == 0),
        "unexpected error: {err}"
    );
    // …and so does every subsequent operation until recovery.
    let err = sharded.try_process(doc(2)).expect_err("still degraded");
    assert!(matches!(
        err,
        cts_core::EngineError::ShardUnavailable { shard: 0 }
    ));
    assert_eq!(sharded.recover_degraded().expect("recovers"), 1);
    sharded
        .try_process(doc(3))
        .expect("recovered engine serves");
    assert!(!sharded.current_results(q).is_empty());
}

/// The guard of the fault contract's counter carve-out: rebuilding an ITA
/// engine from (window contents, registered queries) alone reproduces its
/// results but **not** its future work counters, because
/// registered-mid-stream queries carry thresholds derived from expired
/// history. This is why a cold-resurrected shard is held to exact results,
/// arrivals and expirations only (DESIGN.md §10). If this test ever starts
/// failing (rebuilds stop diverging), the carve-out can go and the faulted
/// differentials can compare full outcomes again.
#[test]
fn window_replay_rebuild_is_not_exact() {
    let mut diverged = 0usize;
    for seed in 0..20u64 {
        let mut rng = ScriptRng::new(seed);
        let window = SlidingWindow::count_based(10);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut clock = Timestamp::ZERO;
        let random_doc = |rng: &mut ScriptRng, id: u64, clock: &mut Timestamp| {
            *clock = clock.advance(Duration::from_millis(rng.below(4) as u64));
            let terms = rng.range(1, 5);
            let palette = [0.1, 0.2, 0.2, 0.4, 0.7];
            let weights: Vec<(TermId, f64)> = (0..terms)
                .map(|_| (TermId(rng.below(16) as u32), palette[rng.below(5)]))
                .collect();
            Document::new(DocId(id), *clock, WeightedVector::from_weights(weights))
        };
        let random_query = |rng: &mut ScriptRng| {
            let terms = rng.range(1, 4);
            let weights: Vec<(TermId, f64)> = (0..terms)
                .map(|_| {
                    (
                        TermId(rng.below(16) as u32),
                        0.1 + rng.below(8) as f64 * 0.1,
                    )
                })
                .collect();
            ContinuousQuery::from_weights(weights, rng.range(1, 4))
        };
        let mut queries = Vec::new();
        for _ in 0..3 {
            let q = random_query(&mut rng);
            queries.push((reference.register(q.clone()), q));
        }
        for i in 0..40u64 {
            let d = random_doc(&mut rng, i, &mut clock);
            reference.process_document(d);
            if rng.chance(0.08) {
                let q = random_query(&mut rng);
                queries.push((reference.register(q.clone()), q));
            }
        }
        // The naive rebuild: register everything, replay the surviving
        // window (the order the cold-resurrection path uses — which is why
        // cold recovery only promises exact *results*, not exact state).
        let mut rebuilt = ItaEngine::new(window, ItaConfig::default());
        rebuilt.register_batch_with_ids(queries.clone());
        let window_docs: Vec<Document> = reference.store_documents().cloned().collect();
        for d in window_docs {
            rebuilt.process_document(d);
        }
        // Current results DO match (they are a function of window contents)…
        for (qid, _) in &queries {
            assert_eq!(
                reference.current_results(*qid),
                rebuilt.current_results(*qid),
                "seed {seed}: cold rebuild broke current results"
            );
        }
        // …but future behaviour may not: thresholds are history-dependent.
        for i in 40..80u64 {
            let d = random_doc(&mut rng, i, &mut clock);
            if reference.process_document(d.clone()) != rebuilt.process_document(d) {
                diverged += 1;
                break;
            }
        }
    }
    assert!(
        diverged > 0,
        "window-replay rebuilds reproduced the engine exactly on all seeds; \
         the fault contract's work-counter carve-out is no longer needed"
    );
}
