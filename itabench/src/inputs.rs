//! Seeded inputs: the Fig 3 paper point generated from the `--seed` argument.
//!
//! WSJ-like corpus (181,978-term Zipf vocabulary, the corpus crate's
//! defaults), a 200 docs/s Poisson stream, 10-term `k = 10` cosine queries
//! with uniformly drawn terms, and a 10,000-document count window. Every
//! input is a pure function of the seed, so the same seed gives the same
//! documents and queries — which is also what lets the correctness gate
//! rebuild the processed documents instead of keeping them in memory.
//!
//! The stream's first [`POOL_DOCS`] documents are generated up front; after
//! them it replays their contents in the same order, under fresh ids and
//! later arrival times. Generating a document costs about 70 µs, as much as
//! the sharded engine spends on it, so a stream generated throughout spent
//! half of each run, and half of its correctness gate, generating inputs.

use std::time::Instant;

use cts_core::ContinuousQuery;
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{DocId, Document, SlidingWindow, Timestamp};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

/// Continuous queries registered before any clock starts.
pub const QUERIES: usize = 1_000;
/// Count-based window size, in documents.
pub const WINDOW_DOCS: usize = 10_000;
/// Search terms per query.
pub const QUERY_TERMS: usize = 10;
/// Results maintained per query.
pub const K: usize = 10;
/// The paper's mean arrival rate, documents per second.
pub const PAPER_RATE: f64 = 200.0;

/// The sliding window of every workload.
pub fn window() -> SlidingWindow {
    SlidingWindow::count_based(WINDOW_DOCS)
}

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed's generator for workload decisions (the order of steps).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The run seed's decision stream.
    pub fn new(seed: u64) -> Self {
        Self(mix(seed, 0xC4_0000))
    }

    /// A uniform draw from `range` (inclusive).
    pub fn between(&mut self, range: std::ops::RangeInclusive<usize>) -> usize {
        self.0 = self.0.wrapping_add(1);
        let span = (range.end() - range.start() + 1) as u64;
        range.start() + (mix(self.0, 7) % span) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.between(0..=i));
        }
    }
}

/// Distinct document contents in the stream: 1.2 windows' worth, so a
/// content re-enters the window only after its previous copy has left it.
/// The window's contents then repeat with the pool's period, and the
/// engines' work per event is that of the pool's first pass, a stream of
/// distinct documents.
pub const POOL_DOCS: usize = WINDOW_DOCS + WINDOW_DOCS / 5;

/// A document source that times its own generation, so every workload can
/// show that generation stays outside its measured intervals.
#[derive(Debug, Clone)]
pub struct Docs {
    /// The generated documents.
    pool: Vec<Document>,
    /// Id of the next document `take` returns.
    next: u64,
    /// Documents handed out so far.
    generated: u64,
    gen_ns: u128,
}

impl Docs {
    /// The seed's document stream, from its first document. Generates the
    /// pool (about 0.9 s).
    pub fn new(seed: u64) -> Self {
        let corpus = CorpusConfig {
            seed: mix(seed, 1),
            ..CorpusConfig::default()
        };
        let stream = StreamConfig {
            arrival_rate_per_sec: PAPER_RATE,
            seed: mix(seed, 2),
        };
        let start = Instant::now();
        let pool = DocumentStream::new(corpus, stream).take_documents(POOL_DOCS);
        Self {
            pool,
            next: 0,
            generated: 0,
            gen_ns: start.elapsed().as_nanos(),
        }
    }

    /// The next `n` documents of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Document> {
        let start = Instant::now();
        let docs = (0..n as u64).map(|k| self.doc(self.next + k)).collect();
        self.next += n as u64;
        self.gen_ns += start.elapsed().as_nanos();
        self.generated += n as u64;
        docs
    }

    /// Skips ahead so the next document has id `id` (documents are numbered
    /// in stream order from 0).
    pub fn seek(&mut self, id: DocId) -> Document {
        assert!(id.0 >= self.next, "{id} was already generated");
        self.next = id.0;
        self.take(1).pop().expect("take(1) yields one document")
    }

    /// Document `i` of the stream: the pool's document `i mod POOL_DOCS`,
    /// with id `i` and its arrival time moved on by one pool's span per lap,
    /// so arrivals keep increasing.
    fn doc(&self, i: u64) -> Document {
        let pool = POOL_DOCS as u64;
        let source = &self.pool[(i % pool) as usize];
        let last = self.pool.last().expect("the pool is not empty");
        let span = last.arrival.as_micros() + (1e6 / PAPER_RATE) as u64;
        let arrival = Timestamp::from_micros(source.arrival.as_micros() + (i / pool) * span);
        Document::new(DocId(i), arrival, source.composition.clone())
    }

    /// Total generation time so far, in seconds.
    pub fn gen_seconds(&self) -> f64 {
        self.gen_ns as f64 / 1e9
    }

    /// Mean generation time per document so far, in microseconds.
    pub fn gen_us_per_doc(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.gen_ns as f64 / 1e3 / self.generated as f64
        }
    }
}

/// The seed's query specifications, drawn in chunks on demand (the
/// subscription-churn workload registers more than the initial 1,000).
#[derive(Debug, Clone)]
pub struct Queries {
    seed: u64,
    chunk: u64,
    built: Vec<ContinuousQuery>,
    build_ns: u128,
}

impl Queries {
    /// The seed's query source.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            chunk: 0,
            built: Vec::new(),
            build_ns: 0,
        }
    }

    /// Query number `i` of the seed's sequence (generated on first use).
    pub fn get(&mut self, i: usize) -> &ContinuousQuery {
        while self.built.len() <= i {
            self.extend();
        }
        &self.built[i]
    }

    /// Queries `range` of the seed's sequence, cloned.
    pub fn slice(&mut self, range: std::ops::Range<usize>) -> Vec<ContinuousQuery> {
        if range.end > 0 {
            self.get(range.end - 1);
        }
        self.built[range].to_vec()
    }

    /// Time spent turning term specifications into weighted queries (the
    /// text layer's cosine weighting), in milliseconds.
    pub fn build_ms(&self) -> f64 {
        self.build_ns as f64 / 1e6
    }

    fn extend(&mut self) {
        let specs = QueryWorkload::new(
            WorkloadConfig {
                num_queries: QUERIES,
                query_length: QUERY_TERMS,
                k: K,
                popularity_biased: false,
                seed: mix(self.seed, 3 + self.chunk),
            },
            CorpusConfig::default().vocabulary_size,
        )
        .generate();
        self.chunk += 1;
        let dict = Dictionary::new();
        let start = Instant::now();
        self.built.extend(specs.iter().map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        }));
        self.build_ns += start.elapsed().as_nanos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (mut a, mut b, mut c) = (Docs::new(7), Docs::new(7), Docs::new(8));
        let (x, y, z) = (a.take(5), b.take(5), c.take(5));
        assert_eq!(x, y);
        assert_ne!(x, z);
        let mut q = Queries::new(7);
        let mut r = Queries::new(7);
        assert_eq!(q.slice(0..3), r.slice(0..3));
        assert_eq!(q.get(QUERIES + 1), r.get(QUERIES + 1));
        assert_ne!(q.get(0), Queries::new(8).get(0));
    }

    #[test]
    fn seek_regenerates_the_same_document() {
        let mut a = Docs::new(3);
        let docs = a.take(4);
        let mut b = Docs::new(3);
        assert_eq!(b.seek(DocId(2)), docs[2]);
        assert_eq!(b.seek(DocId(3)), docs[3]);
    }

    #[test]
    fn the_stream_replays_the_pool_under_fresh_ids_and_later_arrivals() {
        let pool = POOL_DOCS as u64;
        let mut a = Docs::new(5);
        let first = a.take(2);
        let again = [a.seek(DocId(pool)), a.seek(DocId(pool + 1))];
        for (doc, copy) in first.iter().zip(&again) {
            assert_eq!(copy.id.0, doc.id.0 + pool);
            assert_eq!(copy.composition, doc.composition);
        }
        assert!(again[0].arrival > a.pool.last().unwrap().arrival);
        assert!(again[1].arrival > again[0].arrival);
        // A fresh source rebuilds the same replayed document.
        assert_eq!(Docs::new(5).seek(DocId(pool + 1)), again[1]);
    }
}
