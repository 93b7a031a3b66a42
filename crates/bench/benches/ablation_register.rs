//! Ablation: what a query registration costs under each strategy.
//!
//! Fixes an [`ItaEngine`] (whose term-filtered index means registration
//! must bring newly-live terms up from the stored window) over
//! a filled count-based window and prices the three registration protocols
//! of DESIGN.md §9 against each other:
//!
//! * `eager-loop` — `lazy_registration: false`, one [`Engine::register`]
//!   call per query: every registration that brings terms live pays its
//!   backfill immediately, one pass per registration. This is the pre-§9
//!   behaviour — the protocol behind the registration cliff.
//! * `lazy-loop`  — the default lazy config, still one `register` per
//!   query: terms go cold and the query's own initial threshold search
//!   warms them, so the scan count is the same but each backfill batches
//!   the query's terms into one store pass.
//! * `bulk`       — one [`Engine::register_batch`] call for the whole
//!   workload: all newly-live terms across the batch are brought up in one
//!   sorted merge over the window before any threshold search runs.
//!
//! The measured routine registers the full workload and then deregisters it
//! (restoring the engine for the next iteration); a manual clock around the
//! registration half plus the engine's `register_postings_touched` counter
//! are printed per arm, so the readout separates register-only time from
//! the teardown and ties it to the postings actually filed. The
//! registration-burst differential tests hold all three protocols
//! byte-identical; this bench prices them.
//!
//! Run with `cargo bench --bench ablation_register`. Set
//! `CTS_ABLATION_REGISTER_QUICK=1` for a reduced point (50 queries,
//! 400-document window) when iterating on the harness itself.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
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
    let quick = std::env::var_os("CTS_ABLATION_REGISTER_QUICK").is_some();
    let corpus = CorpusConfig {
        seed: 0x4E60_0001,
        ..if quick {
            CorpusConfig::small()
        } else {
            CorpusConfig::default()
        }
    };
    Point {
        num_queries: if quick { 50 } else { 1_000 },
        window_docs: if quick { 400 } else { 10_000 },
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
            seed: 0x4E60_0002,
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

/// An engine with a freshly filled window (untimed setup).
fn filled_engine(point: &Point, config: ItaConfig) -> ItaEngine {
    let mut engine = ItaEngine::new(SlidingWindow::count_based(point.window_docs), config);
    let mut stream = DocumentStream::new(
        point.corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x4E60_0003,
        },
    );
    for _ in 0..point.window_docs {
        engine.process_document(stream.next_document());
    }
    engine
}

/// One registration strategy: a label, the config it needs and how it
/// registers the workload.
type RegisterFn = fn(&mut ItaEngine, &[ContinuousQuery]) -> Vec<cts_index::QueryId>;

fn register_looped(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<cts_index::QueryId> {
    queries.iter().map(|q| engine.register(q.clone())).collect()
}

fn register_bulk(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<cts_index::QueryId> {
    engine.register_batch(queries.to_vec())
}

fn bench_registration_strategies(c: &mut Criterion) {
    let point = operating_point();
    let queries = build_queries(&point);
    let eager = ItaConfig {
        lazy_registration: false,
        ..ItaConfig::default()
    };
    let arms: [(&str, ItaConfig, RegisterFn); 3] = [
        ("eager-loop", eager, register_looped),
        ("lazy-loop", ItaConfig::default(), register_looped),
        ("bulk", ItaConfig::default(), register_bulk),
    ];
    for (label, config, register) in arms {
        let mut engine = filled_engine(&point, config);
        eprintln!(
            "ablation_register: {label} ready ({} queries, {}-doc window)",
            point.num_queries, point.window_docs
        );
        let mut register_time = std::time::Duration::ZERO;
        let mut iterations = 0u64;
        let postings_before = engine.register_postings_touched();
        c.bench_function(
            &format!(
                "ita/register/q{}w{}/{label}",
                point.num_queries, point.window_docs
            ),
            |b| {
                b.iter(|| {
                    // The registration half is what this ablation prices;
                    // the deregister half restores the engine for the next
                    // iteration and is deliberately inside the criterion
                    // clock but outside the manual one.
                    let start = Instant::now();
                    let ids = register(&mut engine, &queries);
                    register_time += start.elapsed();
                    iterations += 1;
                    for id in &ids {
                        engine.deregister(*id);
                    }
                })
            },
        );
        if iterations > 0 {
            let per_workload = register_time.as_secs_f64() / iterations as f64;
            let filed = engine.register_postings_touched() - postings_before;
            eprintln!(
                "ita/register/{label}: {:.3} s per {}-query workload \
                 ({:.1} µs/query, {} postings filed across {iterations} iteration(s))",
                per_workload,
                point.num_queries,
                per_workload * 1e6 / point.num_queries as f64,
                filed,
            );
        }
    }
}

criterion_group!(benches, bench_registration_strategies);
criterion_main!(benches);
