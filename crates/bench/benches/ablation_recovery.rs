//! Ablation: what recovering a faulted shard worker costs.
//!
//! Fixes a sharded engine over a filled count-based window and prices the
//! one recovery path of DESIGN.md §10 against a fault-free event:
//!
//! * `cold` — a caught panic poisons the shard, so the coordinator rebuilds
//!   it from the durable registry and the window mirror — re-registration
//!   plus a full window replay. Cost scales with window size × resident
//!   queries.
//! * `none` — the same steady-state event with no fault, the baseline.
//!
//! Each measured `cold` iteration arms one fault and feeds one document
//! through the engine, so the criterion number is (event + recovery). The
//! engine's own `recovery_micros` counter is printed per arm, isolating
//! time inside the rebuild from the surrounding dispatch.
//!
//! Run with `cargo bench --bench ablation_recovery`. Set
//! `CTS_ABLATION_RECOVERY_QUICK=1` for a reduced point (50 queries,
//! 400-document window) when iterating on the harness itself.

use criterion::{criterion_group, criterion_main, Criterion};

use cts_core::{ContinuousQuery, Engine, ItaConfig, ShardedItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::SlidingWindow;
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

struct Point {
    num_queries: usize,
    window_docs: usize,
    corpus: CorpusConfig,
}

fn operating_point() -> Point {
    let quick = std::env::var_os("CTS_ABLATION_RECOVERY_QUICK").is_some();
    let corpus = CorpusConfig {
        seed: 0x4E60_0011,
        ..if quick {
            CorpusConfig::small()
        } else {
            CorpusConfig::default()
        }
    };
    Point {
        num_queries: if quick { 50 } else { 500 },
        window_docs: if quick { 400 } else { 5_000 },
        corpus,
    }
}

fn build_queries(point: &Point) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: point.num_queries,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x4E60_0012,
        },
        point.corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect()
}

/// A 2-shard engine with the workload registered and the window filled
/// (untimed setup), plus the stream to keep feeding from.
fn prepared_engine(point: &Point) -> (ShardedItaEngine, DocumentStream) {
    let mut engine = ShardedItaEngine::new(
        SlidingWindow::count_based(point.window_docs),
        ItaConfig::default(),
        2,
    );
    let mut stream = DocumentStream::new(
        point.corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x4E60_0013,
        },
    );
    engine.register_batch(build_queries(point));
    for _ in 0..point.window_docs {
        engine.process_document(stream.next_document());
    }
    (engine, stream)
}

fn bench_recovery_paths(c: &mut Criterion) {
    let point = operating_point();
    // (label, arm a fault every iteration): the fault-free baseline first.
    for (label, faulty) in [("none", false), ("cold", true)] {
        let (mut engine, mut stream) = prepared_engine(&point);
        eprintln!(
            "ablation_recovery: {label} ready ({} queries, {}-doc window, 2 shards)",
            point.num_queries, point.window_docs
        );
        c.bench_function(
            &format!(
                "sharded_ita/recovery/q{}w{}/{label}",
                point.num_queries, point.window_docs
            ),
            |b| {
                b.iter(|| {
                    if faulty {
                        // One fault on one shard per iteration: the next
                        // event is applied, the worker panics, and the
                        // measured time includes the recovery.
                        engine.inject_fault(0);
                    }
                    engine.process_document(stream.next_document())
                })
            },
        );
        let stats = engine.fault_stats().expect("sharded engines track faults");
        assert_eq!(
            stats.faults, stats.recoveries,
            "{label}: some faults did not recover"
        );
        eprintln!(
            "sharded_ita/recovery/{label}: {} faults, {} recoveries, \
             {} µs total inside restore/rebuild ({:.1} µs/recovery)",
            stats.faults,
            stats.recoveries,
            stats.recovery_micros,
            if stats.recoveries > 0 {
                stats.recovery_micros as f64 / stats.recoveries as f64
            } else {
                0.0
            },
        );
    }
}

criterion_group!(benches, bench_recovery_paths);
criterion_main!(benches);
