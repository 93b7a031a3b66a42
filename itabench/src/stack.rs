//! The deployed stack shared by `serve-open` and `sub-churn`, and the
//! loops that exercise it: open-loop rungs, closed-loop bursts,
//! subscription bursts and deregistrations.
//!
//! The stack is `StreamService::new(ShardedItaEngine::new(.., 2),
//! ServiceConfig::default())`, built through its public default constructors
//! so a changed default is measured as shipped. Load comes from this one
//! thread: it offers, then blocks in `pump` while the shards work.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cts_core::{
    Admission, DrainReport, Engine, ItaConfig, ServiceConfig, ShardedItaEngine, StreamService,
};
use cts_index::{Document, QueryId};

use crate::gate::OpLog;
use crate::inputs::{window, Queries};
use crate::layers::EventWork;
use crate::report::Metrics;
use crate::stats::{mean, ratio, tail};
use crate::trace::{SpanId, Tracer};

/// Worker shards: one per core of the two-core machine the benchmark was
/// built on (the load-generating thread blocks while they work).
pub const SHARDS: usize = 2;
/// Tail-latency limit of the open-loop ladder: 20 inter-arrival gaps at the
/// paper's 200 docs/s.
pub const LATENCY_LIMIT_US: f64 = 100_000.0;
/// The open-loop reference rate, events/s: the paper's arrival rate. Each
/// event is pumped on its own and only about 1% of them wait behind a
/// warm-checkpoint clone, so the median stays clear of the clone stalls. At
/// 1,000 events/s the stalls backed up enough events, on a slowed host, to
/// lift the median from 0.17 to 1.9 ms.
pub const REFERENCE_RATE: f64 = crate::inputs::PAPER_RATE;
/// Every `CHECK_STRIDE`-th result list read is kept for the oracle gate.
pub const CHECK_STRIDE: usize = 8;

/// The deployed stack.
pub type Service = StreamService<ShardedItaEngine>;

/// A fresh stack over the workload's window.
pub fn build() -> Service {
    StreamService::new(
        ShardedItaEngine::new(window(), ItaConfig::default(), SHARDS),
        ServiceConfig::default(),
    )
}

/// Builds the stack, fills the window through the service in bursts of
/// `max_coalesce` and registers `workload` in one bulk call. Returns the
/// stack with the query ids, and the seconds spent in those engine calls
/// (the documents and queries are cloned before the clock starts).
pub fn setup(
    fill: &[Document],
    workload: &[cts_core::ContinuousQuery],
) -> Result<((Service, Vec<QueryId>), f64), String> {
    let bursts: Vec<Vec<Document>> = fill
        .chunks(ServiceConfig::default().max_coalesce)
        .map(<[Document]>::to_vec)
        .collect();
    let queries = workload.to_vec();
    let start = Instant::now();
    let mut svc = build();
    for burst in bursts {
        for doc in burst {
            if svc.offer_document(doc) != Admission::Accepted {
                return Err("window fill was not admitted".into());
            }
        }
        let report = svc.pump(svc.admission_clock());
        if !report.shed.is_empty() {
            return Err("window fill shed events".into());
        }
    }
    let ids = svc.engine_mut().register_batch(queries);
    Ok(((svc, ids), start.elapsed().as_secs_f64()))
}

/// Per-shard cumulative busy time, read through `shard_stats()`.
pub type ShardBusy<E> = fn(&StreamService<E>) -> Vec<Duration>;

/// The deployed stack's shard-busy reader.
pub fn shard_busy(svc: &Service) -> Vec<Duration> {
    svc.engine()
        .shard_stats()
        .iter()
        .map(|s| s.total_time)
        .collect()
}

/// What the load loops thread through every call: the span recorder, the
/// operation log of the correctness gate, and how to read shard busy time
/// (only read while tracing — it is a round-trip to every shard).
pub struct Ctx<'a, E: Engine> {
    /// Span recorder (disabled on untraced runs).
    pub tracer: &'a mut Tracer,
    /// The correctness gate's operation log.
    pub log: &'a mut OpLog,
    /// Per-shard busy-time reader.
    pub shard_busy: ShardBusy<E>,
}

/// Accounting of a sequence of pumps.
#[derive(Debug, Clone, Default)]
pub struct PumpMeter {
    /// Pumps made.
    pub pumps: u64,
    /// Wall time inside `pump`, ns.
    pub pump_ns: u128,
    /// Engine time inside those pumps (the service monitor's event timing),
    /// ns.
    pub engine_ns: u128,
    /// Busy time summed over shards, ns (traced runs only).
    pub busy_ns: u128,
    /// Busy time of the slowest shard of each pump, summed, ns (traced runs
    /// only).
    pub critical_ns: u128,
    /// Events processed.
    pub events: u64,
    /// Coalesced `process_batch` bursts.
    pub batches: u64,
    /// Events processed inside coalesced bursts.
    pub coalesced_events: u64,
    /// Events shed (reported by the pumps).
    pub shed: u64,
    /// Sum of `queries_touched_by_arrival` over processed events.
    pub touched_arrival: u64,
    /// Sum of `queries_touched_by_expiration` over processed events.
    pub touched_expiration: u64,
    /// Sum of `results_changed` over processed events.
    pub results_changed: u64,
    /// Per pump that processed events: its engine time divided by its
    /// event count, µs. A pump's events share one engine call (or a few),
    /// so the pump, not the event, is one sample.
    pub pump_event_us: Vec<f64>,
}

impl PumpMeter {
    /// Pumps `svc` once and accounts for it. Returns the drain report and
    /// the pump's start and end.
    pub fn pump<E: Engine>(
        &mut self,
        svc: &mut StreamService<E>,
        ctx: &mut Ctx<'_, E>,
        parent: Option<SpanId>,
    ) -> (DrainReport, Instant, Instant) {
        let busy_before = Self::read_busy(svc, ctx, parent);
        let engine_before = svc.stats().total_time;
        let start = Instant::now();
        let report = svc.pump(svc.admission_clock());
        let end = Instant::now();
        let engine = svc.stats().total_time.saturating_sub(engine_before);
        ctx.tracer.record("pump", start, end, parent, None);
        if let Some(before) = busy_before {
            let after = Self::read_busy(svc, ctx, parent).unwrap_or_default();
            let deltas: Vec<Duration> = after
                .iter()
                .zip(&before)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect();
            self.busy_ns += deltas.iter().map(Duration::as_nanos).sum::<u128>();
            self.critical_ns += deltas.iter().max().map_or(0, Duration::as_nanos);
        }
        self.pumps += 1;
        self.pump_ns += (end - start).as_nanos();
        self.engine_ns += engine.as_nanos();
        let processed = report.processed.len();
        self.events += processed as u64;
        self.batches += report.batches;
        self.coalesced_events += processed as u64 - report.singletons;
        self.shed += report.shed.len() as u64;
        for outcome in &report.outcomes {
            self.touched_arrival += outcome.queries_touched_by_arrival as u64;
            self.touched_expiration += outcome.queries_touched_by_expiration as u64;
            self.results_changed += outcome.results_changed as u64;
        }
        if processed > 0 {
            self.pump_event_us
                .push(engine.as_secs_f64() * 1e6 / processed as f64);
        }
        (report, start, end)
    }

    fn read_busy<E: Engine>(
        svc: &StreamService<E>,
        ctx: &mut Ctx<'_, E>,
        parent: Option<SpanId>,
    ) -> Option<Vec<Duration>> {
        if !ctx.tracer.enabled() {
            return None;
        }
        let start = Instant::now();
        let busy = (ctx.shard_busy)(svc);
        ctx.tracer
            .record("stats", start, Instant::now(), parent, None);
        Some(busy)
    }

    /// Sets the `sharded.*` time split and the `service.*` pump metrics.
    /// Returns an error when the split does not add up: service self time
    /// (pump − engine), the slowest shard's busy time and the unattributed
    /// rest (engine − slowest shard) must sum to the pump time, and none may
    /// be negative beyond timer resolution.
    pub fn set_layers(&self, m: &mut Metrics) -> Result<(), String> {
        let events = self.events as f64;
        let per_event = |ns: f64| ratio(ns / 1e3, events);
        let (pump, engine) = (self.pump_ns as f64, self.engine_ns as f64);
        let (busy, critical) = (self.busy_ns as f64, self.critical_ns as f64);
        let note = format!("{} events, {} pumps", self.events, self.pumps);
        m.set("sharded.call_us_per_event", per_event(engine), note.clone());
        m.set("sharded.busy_us_per_event", per_event(busy), note.clone());
        m.set(
            "sharded.critical_us_per_event",
            per_event(critical),
            note.clone(),
        );
        m.set(
            "sharded.parallel_util",
            ratio(busy, engine * SHARDS as f64),
            format!("{SHARDS} shards"),
        );
        m.set(
            "sharded.unattributed_us_per_event",
            per_event(engine - critical),
            "call - slowest shard: fan-out, handoff, merge, checkpoint clones",
        );
        m.set(
            "service.self_us_per_event",
            per_event(pump - engine),
            "pump - engine time",
        );
        m.set(
            "service.coalesced_frac",
            ratio(self.coalesced_events as f64, events),
            note.clone(),
        );
        m.set(
            "service.mean_burst",
            ratio(self.coalesced_events as f64, self.batches as f64),
            format!("{} coalesced bursts", self.batches),
        );
        m.set(
            "ita.process_us_per_event",
            per_event(busy),
            "worker busy time summed over shards",
        );
        let parts = per_event(pump - engine) + per_event(critical) + per_event(engine - critical);
        let whole = per_event(pump);
        let slack = 1e-6 * whole.max(1.0);
        if (parts - whole).abs() > slack {
            return Err(format!(
                "pump time split does not add up: {parts} vs {whole} us/event"
            ));
        }
        // The slowest shard works inside the coordinator's call, which runs
        // inside the pump; allow 1 µs per pump of timer disagreement.
        let tolerance = self.pumps as f64 * 1e3;
        if engine - critical < -tolerance || pump - engine < -tolerance {
            return Err(format!(
                "negative share in the pump split: self {} us, unattributed {} us",
                (pump - engine) / 1e3,
                (engine - critical) / 1e3
            ));
        }
        Ok(())
    }

    /// The ITA work of the processed events, from their outcomes.
    pub fn work(&self) -> EventWork {
        EventWork {
            events: self.events,
            touched_arrival: self.touched_arrival,
            touched_expiration: self.touched_expiration,
            results_changed: self.results_changed,
        }
    }

    /// Folds another meter into this one.
    pub fn absorb(&mut self, other: &PumpMeter) {
        self.pumps += other.pumps;
        self.pump_ns += other.pump_ns;
        self.engine_ns += other.engine_ns;
        self.busy_ns += other.busy_ns;
        self.critical_ns += other.critical_ns;
        self.events += other.events;
        self.batches += other.batches;
        self.coalesced_events += other.coalesced_events;
        self.shed += other.shed;
        self.touched_arrival += other.touched_arrival;
        self.touched_expiration += other.touched_expiration;
        self.results_changed += other.results_changed;
        self.pump_event_us.extend(&other.pump_event_us);
    }
}

/// Sets `sharded.load_skew`: the busiest shard's query count over the mean.
pub fn set_load_skew(svc: &Service, m: &mut Metrics) {
    let loads = svc.engine().shard_loads();
    let mean_load = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    let max_load = loads.iter().copied().max().unwrap_or(0) as f64;
    m.set(
        "sharded.load_skew",
        ratio(max_load, mean_load),
        format!("shard loads {loads:?}"),
    );
}

/// Logs what a pump applied, in the order the service applied it: the
/// coalesced registrations it flushed (matched to `pending`, the query
/// numbers in offer order), then the events it processed.
pub fn log_drain(log: &mut OpLog, report: &DrainReport, pending: &mut VecDeque<(usize, Instant)>) {
    for &id in &report.registered {
        let (query, _) = pending
            .pop_front()
            .expect("the service registers only offered queries");
        log.register(id, query);
    }
    for &doc in &report.processed {
        log.event(doc);
    }
}

/// One rung of the serving ladder.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Offered rate, events/s (infinite for the closed-loop rung).
    pub rate: f64,
    /// Events the generator scheduled.
    pub offered: usize,
    /// Offers refused with `Retry` (the event was not taken).
    pub retries: u64,
    /// Due (or offer) time → end of the pump that processed the event, µs,
    /// indexed by the event's position in the rung (`None`: not processed).
    pub latency_us: Vec<Option<f64>>,
    /// Offer → start of the pump that processed the event, µs (open rungs).
    pub queue_wait_us: Vec<f64>,
    /// Generator lateness: offer time − due time, µs.
    pub lag_us: Vec<f64>,
    /// Duration of each `offer` call, µs.
    pub offer_us: Vec<f64>,
    /// Deepest the ingest queue got, events.
    pub high_water: usize,
    /// Processed events per second from the first due time to the last
    /// completion (closed rung: per second of offer + pump time).
    pub achieved_eps: f64,
    /// The rung's pumps.
    pub meter: PumpMeter,
}

impl Rung {
    /// Latencies of the processed events.
    pub fn latencies(&self) -> Vec<f64> {
        self.latency_us.iter().flatten().copied().collect()
    }

    /// Whether the rung met the latency limit on its tail percentile with
    /// no growing backlog: nothing shed or refused, and the events due in
    /// the rung's last quarter waited on average at most a quarter of the
    /// limit longer than those due in its first quarter (a backlog that
    /// grows makes latency climb through the rung; a stall does not).
    pub fn passes(&self) -> bool {
        let (p99, growth) = self.tail_and_growth();
        self.meter.shed == 0
            && self.retries == 0
            && self.latencies().len() == self.offered
            && p99 <= LATENCY_LIMIT_US
            && growth <= LATENCY_LIMIT_US / 4.0
    }

    /// The rung's p99 latency and how much longer its last quarter waited
    /// than its first, µs (infinite when too few events were processed).
    pub fn tail_and_growth(&self) -> (f64, f64) {
        let lat = self.latencies();
        let Some(p99) = tail(&lat, 99.0) else {
            return (f64::INFINITY, f64::INFINITY);
        };
        let quarter = lat.len().div_ceil(4);
        let growth = mean(&lat[lat.len() - quarter..]) - mean(&lat[..quarter]);
        (p99.value, growth)
    }
}

/// Sleeps (coarsely) then spins until `t`.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offers `docs` (consecutive ids) open loop at a fixed `rate`: event `i` is
/// due `i / rate` seconds after the rung starts and is offered as soon as the
/// generator is free at or after that time; whenever the queue is non-empty
/// the generator pumps, blocking while the engine works. Latency counts from
/// the due time, so a stall delays every event due during it.
pub fn open_rung<E: Engine>(
    svc: &mut StreamService<E>,
    docs: Vec<Document>,
    rate: f64,
    ctx: &mut Ctx<'_, E>,
    parent: Option<SpanId>,
) -> Rung {
    let n = docs.len();
    let first = docs.first().map_or(0, |d| d.id.0);
    let mut rung = Rung {
        rate,
        offered: n,
        latency_us: vec![None; n],
        ..Rung::default()
    };
    let mut offered_at: Vec<Option<Instant>> = vec![None; n];
    let mut pending = docs.into_iter();
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (mut next, mut settled) = (0usize, 0usize);
    let mut last_done = start;
    let mut no_regs = VecDeque::new();
    while settled < n {
        while next < n && due(next) <= Instant::now() {
            let doc = pending.next().expect("one document per scheduled event");
            let id = doc.id.0;
            let t0 = Instant::now();
            let admission = svc.offer_document(doc);
            let t1 = Instant::now();
            ctx.tracer.record("offer", t0, t1, parent, Some(id));
            rung.offer_us.push((t1 - t0).as_secs_f64() * 1e6);
            rung.lag_us.push((t0 - due(next)).as_secs_f64() * 1e6);
            rung.high_water = rung.high_water.max(svc.depth());
            if admission.is_retry() {
                rung.retries += 1;
                settled += 1;
            } else {
                offered_at[next] = Some(t0);
            }
            next += 1;
        }
        if svc.depth() > 0 {
            let (report, pump_start, pump_end) = rung.meter.pump(svc, ctx, parent);
            log_drain(ctx.log, &report, &mut no_regs);
            for doc in &report.processed {
                let i = (doc.0 - first) as usize;
                rung.latency_us[i] = Some((pump_end - due(i)).as_secs_f64() * 1e6);
                let offered = offered_at[i].expect("processed events were offered");
                rung.queue_wait_us
                    .push((pump_start - offered).as_secs_f64() * 1e6);
            }
            settled += report.processed.len() + report.shed.len();
            last_done = pump_end;
        } else if next < n {
            wait_until(due(next));
        }
    }
    let processed = rung.meter.events as f64;
    rung.achieved_eps = processed / (last_done - start).as_secs_f64();
    rung
}

/// The closed-loop rung: offer `max_coalesce` events, pump, repeat, until
/// `seconds` of offer + pump time have passed. Each burst's documents come
/// from `next_burst` before its clock starts.
pub fn closed_rung<E: Engine>(
    svc: &mut StreamService<E>,
    mut next_burst: impl FnMut(usize) -> Vec<Document>,
    seconds: f64,
    ctx: &mut Ctx<'_, E>,
    parent: Option<SpanId>,
) -> Rung {
    let burst = svc.config().max_coalesce;
    let mut rung = Rung {
        rate: f64::INFINITY,
        ..Rung::default()
    };
    let mut busy = 0.0;
    let mut no_regs = VecDeque::new();
    while busy < seconds {
        let g0 = Instant::now();
        let docs = next_burst(burst);
        ctx.tracer
            .record("generate", g0, Instant::now(), parent, None);
        rung.offered += docs.len();
        let t0 = Instant::now();
        for doc in docs {
            let id = doc.id.0;
            let s = Instant::now();
            let admission = svc.offer_document(doc);
            let e = Instant::now();
            ctx.tracer.record("offer", s, e, parent, Some(id));
            rung.offer_us.push((e - s).as_secs_f64() * 1e6);
            rung.high_water = rung.high_water.max(svc.depth());
            if admission.is_retry() {
                rung.retries += 1;
            }
        }
        let (report, _, pump_end) = rung.meter.pump(svc, ctx, parent);
        log_drain(ctx.log, &report, &mut no_regs);
        let latency = (pump_end - t0).as_secs_f64() * 1e6;
        rung.latency_us
            .extend(std::iter::repeat_n(Some(latency), report.processed.len()));
        busy += (pump_end - t0).as_secs_f64();
    }
    rung.achieved_eps = rung.meter.events as f64 / busy;
    rung
}

/// A subscription burst: per-query registration latency and the result
/// reads that follow.
#[derive(Debug, Clone, Default)]
pub struct Subscribe {
    /// `offer_register` → query id, ms, per registered query.
    pub register_ms: Vec<f64>,
    /// Duration of each new query's first `results()` read, µs.
    pub results_us: Vec<f64>,
    /// Registrations offered.
    pub offered: u64,
    /// Registrations that ran immediately.
    pub immediate: u64,
    /// Registrations refused with `Retry` (failures).
    pub retries: u64,
    /// Ids assigned, in registration order.
    pub ids: Vec<QueryId>,
}

impl Subscribe {
    /// Folds another burst's accounting into this one.
    pub fn absorb(&mut self, other: &Subscribe) {
        self.register_ms.extend(&other.register_ms);
        self.results_us.extend(&other.results_us);
        self.offered += other.offered;
        self.immediate += other.immediate;
        self.retries += other.retries;
        self.ids.extend(&other.ids);
    }
}

/// Offers queries `first..first + count` of the seed's sequence through
/// `offer_register`, pumps until every coalesced one has an id, then reads
/// each new query's results once.
pub fn subscribe<E: Engine>(
    svc: &mut StreamService<E>,
    queries: &mut Queries,
    first: usize,
    count: usize,
    meter: &mut PumpMeter,
    ctx: &mut Ctx<'_, E>,
    parent: Option<SpanId>,
) -> Result<Subscribe, String> {
    let mut out = Subscribe::default();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    for index in first..first + count {
        let query = queries.get(index).clone();
        let t0 = Instant::now();
        let (admission, id) = svc.offer_register(query);
        let t1 = Instant::now();
        ctx.tracer
            .record("register", t0, t1, parent, Some(index as u64));
        out.offered += 1;
        match (admission, id) {
            (Admission::Accepted, Some(id)) => {
                out.immediate += 1;
                out.register_ms.push((t1 - t0).as_secs_f64() * 1e3);
                ctx.log.register(id, index);
                out.ids.push(id);
            }
            (Admission::Coalesced, None) => pending.push_back((index, t0)),
            (Admission::Retry { .. }, _) => out.retries += 1,
            (other, id) => return Err(format!("unexpected registration outcome {other:?} {id:?}")),
        }
    }
    while !pending.is_empty() {
        let offered: Vec<Instant> = pending.iter().map(|&(_, t0)| t0).collect();
        let (report, _, pump_end) = meter.pump(svc, ctx, parent);
        if report.registered.is_empty() {
            return Err("a pump left coalesced registrations without ids".into());
        }
        for (&id, t0) in report.registered.iter().zip(offered) {
            out.register_ms.push((pump_end - t0).as_secs_f64() * 1e3);
            out.ids.push(id);
        }
        log_drain(ctx.log, &report, &mut pending);
    }
    for (k, &id) in out.ids.iter().enumerate() {
        let t0 = Instant::now();
        let results = svc.results(id);
        let t1 = Instant::now();
        ctx.tracer
            .record("results", t0, t1, parent, Some(u64::from(id.0)));
        out.results_us.push((t1 - t0).as_secs_f64() * 1e6);
        if k % CHECK_STRIDE == 0 {
            ctx.log.check(id, results);
        }
    }
    Ok(out)
}

/// Deregisters `ids` one by one. Returns each call's duration (µs) and the
/// number of ids the service did not know (failures).
pub fn unsubscribe<E: Engine>(
    svc: &mut StreamService<E>,
    ids: &[QueryId],
    ctx: &mut Ctx<'_, E>,
    parent: Option<SpanId>,
) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(ids.len());
    let mut unknown = 0;
    for &id in ids {
        let t0 = Instant::now();
        let removed = svc.deregister(id);
        let t1 = Instant::now();
        ctx.tracer
            .record("deregister", t0, t1, parent, Some(u64::from(id.0)));
        times.push((t1 - t0).as_secs_f64() * 1e6);
        if removed {
            ctx.log.deregister(id);
        } else {
            unknown += 1;
        }
    }
    (times, unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::{ContinuousQuery, EventOutcome, RankedDocument};
    use cts_index::{DocId, Timestamp};
    use cts_text::WeightedVector;

    /// An engine that does nothing, except stall on one document.
    struct Stall {
        on: DocId,
        stall: Duration,
        clock: Timestamp,
    }

    impl Engine for Stall {
        fn register(&mut self, _: ContinuousQuery) -> QueryId {
            QueryId(0)
        }
        fn deregister(&mut self, _: QueryId) -> bool {
            false
        }
        fn process_document(&mut self, doc: Document) -> EventOutcome {
            if doc.id == self.on {
                std::thread::sleep(self.stall);
            }
            self.clock = doc.arrival;
            EventOutcome {
                arrived: doc.id,
                ..EventOutcome::default()
            }
        }
        fn current_results(&self, _: QueryId) -> Vec<RankedDocument> {
            Vec::new()
        }
        fn num_queries(&self) -> usize {
            0
        }
        fn num_valid_documents(&self) -> usize {
            0
        }
        fn clock(&self) -> Timestamp {
            self.clock
        }
        fn name(&self) -> &'static str {
            "stall"
        }
    }

    fn docs(n: u64) -> Vec<Document> {
        (0..n)
            .map(|i| {
                Document::new(
                    DocId(i),
                    Timestamp::from_millis(i),
                    WeightedVector::from_weights([]),
                )
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_through_a_stall() {
        let stall = Duration::from_millis(40);
        let mut svc = StreamService::new(
            Stall {
                on: DocId(2),
                stall,
                clock: Timestamp::ZERO,
            },
            ServiceConfig::default(),
        );
        let mut tracer = Tracer::new(false);
        let mut log = OpLog::default();
        let mut ctx = Ctx {
            tracer: &mut tracer,
            log: &mut log,
            shard_busy: |_| Vec::new(),
        };
        // 1 ms gaps: events 3..=40 fall due while event 2 stalls the engine.
        let rung = open_rung(&mut svc, docs(60), 1000.0, &mut ctx, None);
        let lat = &rung.latency_us;
        assert!(lat.iter().all(Option::is_some));
        let stall_us = stall.as_secs_f64() * 1e6;
        // Event 2 itself takes the stall; event 3, due 1 ms later, waits for
        // the rest of it even though it was offered only after the stall.
        assert!(lat[2].unwrap() >= stall_us);
        assert!(lat[3].unwrap() >= stall_us - 1_000.0);
        assert!(lat[20].unwrap() >= stall_us - 18_000.0);
        // The generator's own lateness shows the stall too.
        assert!(rung.lag_us[3] >= stall_us - 1_000.0);
        // Long after the stall, latency is back to the pump cost.
        assert!(lat[59].unwrap() < 5_000.0);
        assert_eq!(rung.meter.events, 60);
    }

    #[test]
    fn closed_rung_and_pump_meter_account_for_every_event() {
        let mut svc = StreamService::new(
            Stall {
                on: DocId(u64::MAX),
                stall: Duration::ZERO,
                clock: Timestamp::ZERO,
            },
            ServiceConfig::default(),
        );
        let mut tracer = Tracer::new(true);
        let mut log = OpLog::default();
        let mut ctx = Ctx {
            tracer: &mut tracer,
            log: &mut log,
            shard_busy: |_| vec![Duration::ZERO; 2],
        };
        let mut source = docs(100_000).into_iter();
        let rung = closed_rung(
            &mut svc,
            |n| source.by_ref().take(n).collect(),
            0.01,
            &mut ctx,
            None,
        );
        assert_eq!(rung.meter.events as usize, rung.offered);
        assert_eq!(rung.latencies().len(), rung.offered);
        assert_eq!(rung.meter.coalesced_events, rung.meter.events);
        assert_eq!(rung.meter.pump_event_us.len() as u64, rung.meter.pumps);
        assert!(rung.achieved_eps > 0.0);
        let pumps = tracer.spans().iter().filter(|s| s.name == "pump").count();
        assert_eq!(pumps as u64, rung.meter.pumps);
    }
}
