//! Release-mode paper-scale soak: the ROADMAP's "1,000 queries, 10k+
//! windows, 182k terms" configuration, run as an `#[ignore]`d test so the
//! default `cargo test` stays fast. CI runs it in a dedicated job:
//!
//! ```text
//! cargo test --release -p cts-core --test paper_scale_soak -- --ignored
//! ```
//!
//! The soak fills a 10,000-document count-based window from the synthetic
//! WSJ-like stream (181,978-term vocabulary, log-normal document lengths),
//! registers 1,000 ten-term queries with `k = 10`, streams thousands of
//! steady-state events through [`ItaEngine`], and periodically verifies a
//! sample of queries against a from-scratch brute-force evaluation of the
//! engine's own window — plus the ITA frontier invariant (`τ ≤ S_k` for
//! every saturated query). A full per-event oracle at this scale would cost
//! ~10M score evaluations per event; sampling keeps the soak to a couple of
//! minutes while still catching any incremental-maintenance drift.

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

const NUM_QUERIES: usize = 1_000;
const WINDOW_DOCS: usize = 10_000;
const SOAK_EVENTS: usize = 4_000;
const CHECK_EVERY: usize = 500;
/// Queries re-verified per checkpoint (spread across the id space).
const SAMPLE: usize = 25;

/// Recomputes `query`'s true top-k by scoring every valid document in the
/// engine's own store, mirroring `BruteForceOracle` without paying for a
/// second copy of the 10k-document window.
fn brute_force_top(engine: &ItaEngine, query: &ContinuousQuery) -> Vec<(u64, f64)> {
    let mut results = cts_core::ResultSet::new();
    for doc in engine.store_documents() {
        let score = query.score(&doc.composition);
        if score > 0.0 {
            results.insert(doc.id, score);
        }
    }
    results
        .top(query.k())
        .iter()
        .map(|r| (r.doc.0, r.score))
        .collect()
}

#[test]
#[ignore = "paper-scale soak: minutes in release mode; run via cargo test --release -- --ignored"]
fn ita_survives_a_paper_scale_soak() {
    let corpus = CorpusConfig {
        seed: 0x50AC_0001,
        ..CorpusConfig::default()
    };
    assert_eq!(corpus.vocabulary_size, 181_978, "paper-scale vocabulary");
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x50AC_0002,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let queries: Vec<ContinuousQuery> = workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect();

    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0003,
        },
    );
    let mut engine = ItaEngine::new(
        SlidingWindow::count_based(WINDOW_DOCS),
        ItaConfig::default(),
    );

    // Fill the window, then install the paper's workload.
    for _ in 0..WINDOW_DOCS {
        engine.process_document(stream.next_document());
    }
    let qids: Vec<QueryId> = queries.iter().map(|q| engine.register(q.clone())).collect();
    assert_eq!(engine.num_queries(), NUM_QUERIES);
    assert_eq!(engine.num_valid_documents(), WINDOW_DOCS);

    let sample_stride = (NUM_QUERIES / SAMPLE).max(1);
    for event in 1..=SOAK_EVENTS {
        let outcome = engine.process_document(stream.next_document());
        assert_eq!(outcome.expired, 1, "steady state expires exactly one doc");
        assert_eq!(engine.num_valid_documents(), WINDOW_DOCS);

        if event % CHECK_EVERY != 0 {
            continue;
        }
        // Spot-check: sampled queries must match a from-scratch evaluation.
        for (qid, query) in qids.iter().zip(&queries).step_by(sample_stride) {
            let reported: Vec<(u64, f64)> = engine
                .current_results(*qid)
                .iter()
                .map(|r| (r.doc.0, r.score))
                .collect();
            let expected = brute_force_top(&engine, query);
            assert_eq!(
                reported.len(),
                expected.len(),
                "event {event}, {qid}: result length diverged"
            );
            for (i, ((rd, rs), (ed, es))) in reported.iter().zip(&expected).enumerate() {
                assert_eq!(rd, ed, "event {event}, {qid}: rank {i} document diverged");
                assert!(
                    (rs - es).abs() <= 1e-9,
                    "event {event}, {qid}: rank {i} score diverged ({rs} vs {es})"
                );
            }
            // The paper's frontier invariant: for a saturated top-k,
            // τ = Σ w_{Q,t}·θ_{Q,t} never exceeds S_k.
            let stats = engine.query_stats(*qid).expect("query registered");
            if stats.result_set_size >= query.k() {
                assert!(
                    stats.influence_threshold <= stats.kth_score + 1e-9,
                    "event {event}, {qid}: τ={} > S_k={}",
                    stats.influence_threshold,
                    stats.kth_score
                );
            }
        }
        eprintln!("soak: event {event}/{SOAK_EVENTS} verified");
    }

    // The index tracked the churn exactly: stats stay at window scale.
    let stats = engine.index_stats();
    assert_eq!(stats.documents, WINDOW_DOCS);
    assert!(stats.postings > WINDOW_DOCS, "postings track the window");
    assert!(stats.longest_list <= WINDOW_DOCS);
}

/// Sharded spot-check at paper scale: a 4-shard [`cts_core::ShardedItaEngine`]
/// and the single-shard reference stream the same fill + workload +
/// steady-state events — **as a corpus-built [`cts_core::testkit`] op
/// script** driven by the shared lockstep runner, with the steady state
/// split between single events and 64-document bursts so the batched
/// fan-out is exercised at full scale too. Outcomes are compared on every
/// event; results on a sample of queries at checkpoints
/// (`RunOptions { check_every, sample_stride }` keeps the pair of
/// paper-scale engines to soak-job runtime). Minimization is deliberately
/// skipped at this scale — the failure still reports the offending op.
#[test]
#[ignore = "paper-scale soak: minutes in release mode; run via cargo test --release -- --ignored"]
fn sharded_ita_stays_exact_at_paper_scale() {
    use cts_core::testkit::{run_script, Op, OpScript, RunOptions};
    use cts_core::ShardedItaEngine;

    const SHARDS: usize = 4;
    const EVENTS: usize = 1_000;
    const BATCH: usize = 64;

    let corpus = CorpusConfig {
        seed: 0x50AC_0001,
        ..CorpusConfig::default()
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x50AC_0002,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0003,
        },
    );

    // Build the whole soak as one op script: window fill, workload
    // registration, then a steady state alternating singles and bursts.
    let mut script = OpScript::new(0x50AC_0004);
    for _ in 0..WINDOW_DOCS {
        script.push(Op::Feed(stream.next_document()));
    }
    for spec in workload.generate() {
        script.push(Op::Register(ContinuousQuery::from_term_frequencies(
            &spec.terms,
            spec.k,
            Scoring::Cosine,
            &dict,
        )));
    }
    let mut emitted = 0;
    while emitted < EVENTS {
        if emitted % (4 * BATCH) < BATCH {
            // One burst per four batch-lengths of stream.
            let size = BATCH.min(EVENTS - emitted);
            let docs: Vec<_> = (0..size).map(|_| stream.next_document()).collect();
            emitted += docs.len();
            script.push(Op::FeedBatch(docs));
        } else {
            script.push(Op::Feed(stream.next_document()));
            emitted += 1;
        }
    }

    let window = SlidingWindow::count_based(WINDOW_DOCS);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), SHARDS);
    {
        // `&mut E` is an Engine, so the runner drives borrowed engines and
        // the concrete types stay available for the stats checks below.
        let mut engines: Vec<Box<dyn cts_core::Engine + '_>> =
            vec![Box::new(&mut reference), Box::new(&mut sharded)];
        let options = RunOptions {
            compare_outcomes: true,
            check_every: CHECK_EVERY,
            sample_stride: (NUM_QUERIES / SAMPLE).max(1),
        };
        if let Err(failure) = run_script(&mut engines, &script, &options) {
            panic!(
                "sharded paper-scale soak diverged (seed {:#x}): {failure}",
                script.seed
            );
        }
    }
    assert_eq!(reference.num_queries(), NUM_QUERIES);
    assert_eq!(sharded.num_queries(), NUM_QUERIES);
    assert_eq!(sharded.num_valid_documents(), WINDOW_DOCS);

    // Every shard mirrors the full window; each shard's shadow index files a
    // subset of the terms the reference's live queries reference, so no
    // shard holds more postings than the reference index.
    let full = reference.index_stats();
    let shadow = sharded.shard_index_stats();
    assert!(shadow.iter().all(|s| s.documents == WINDOW_DOCS));
    for s in &shadow {
        assert!(
            s.postings <= full.postings,
            "shadow {} > reference {}",
            s.postings,
            full.postings
        );
    }
}
