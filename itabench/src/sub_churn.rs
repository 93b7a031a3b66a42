//! `sub-churn`: the deployed stack under a registration-heavy closed loop.
//!
//! Same stack, setup and data as `serve-open`. One client runs rounds whose
//! step order is drawn from the seed: eight event bursts (`max_coalesce`
//! events offered, then pumped), one subscription burst (32 queries through
//! `offer_register`, pumped until each has an id, then each new query's
//! `results()` read once) and one deregistration of the 32 oldest queries.
//! A run lasts at least `--seconds` and at least 1,000 registrations, so the
//! registration p99 has ten samples beyond it. It stresses registration,
//! cold-term materialisation and rebalancing, and shows a change that moves
//! registration cost onto events as a drop in `events_per_s`.

use std::collections::VecDeque;
use std::time::Instant;

use cts_core::validate::sample_queries;
use cts_core::Engine;
use cts_index::QueryId;

use crate::inputs::{Docs, Queries, Rng, QUERIES, WINDOW_DOCS};
use crate::layers::{set_faults, set_index, QuerySnapshot};
use crate::report::{peak_rss_mb, Metrics};
use crate::stack::{
    set_load_skew, shard_busy, subscribe, unsubscribe, Ctx, PumpMeter, Service, Subscribe,
};
use crate::stats::{grouped, median, ratio, tail};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome, SELF_CHECK_STRIDE};

/// Registrations a run makes at least.
const MIN_REGISTRATIONS: usize = 1_000;
/// Queries per subscription burst, and per deregistration step.
const CHURN_BURST: usize = 32;
/// Event bursts per round.
const EVENT_BURSTS: usize = 8;
/// Untimed event bursts after setup.
const WARMUP_BURSTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Events,
    Subscribe,
    Unsubscribe,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct Pass {
    rounds: usize,
    /// Pumps of the event bursts.
    events: PumpMeter,
    /// Pumps that flushed coalesced registrations.
    registrations: PumpMeter,
    events_offered: u64,
    /// Offer + pump time of the event bursts, s.
    event_s: f64,
    /// Loop wall time minus document generation, s.
    loop_s: f64,
    latency_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    offer_us: Vec<f64>,
    high_water: usize,
    /// Every subscription burst's accounting.
    subscribed: Subscribe,
    deregister_us: Vec<f64>,
    /// Event offers refused with `Retry`.
    retries: u64,
    unknown_deregistrations: u64,
    /// Where each round ended in the lists and counters above.
    round_ends: Vec<RoundEnd>,
}

/// The lengths and totals of a pass's records when a round ended.
#[derive(Debug, Clone, Copy, Default)]
struct RoundEnd {
    bursts: usize,
    pumps: usize,
    registrations: usize,
    events: u64,
    event_s: f64,
    loop_s: f64,
}

impl Pass {
    fn failures(&self) -> u64 {
        self.events.shed
            + self.registrations.shed
            + self.retries
            + self.subscribed.retries
            + self.unknown_deregistrations
    }

    /// The samples of a per-round-recorded list, one slice per round;
    /// `end` says where the list stood at the end of each round.
    fn by_round<'a>(&self, samples: &'a [f64], end: fn(&RoundEnd) -> usize) -> Vec<&'a [f64]> {
        let mut start = 0;
        self.round_ends
            .iter()
            .map(|r| {
                let slice = &samples[start..end(r)];
                start = end(r);
                slice
            })
            .collect()
    }

    /// `events / seconds` of each round, for the given clock.
    fn round_rates(&self, seconds: fn(&RoundEnd) -> f64) -> Vec<f64> {
        let mut before = RoundEnd::default();
        self.round_ends
            .iter()
            .map(|r| {
                let rate = (r.events - before.events) as f64 / (seconds(r) - seconds(&before));
                before = *r;
                rate
            })
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.events_offered
            + self.subscribed.offered
            + self.deregister_us.len() as u64
            + self.subscribed.results_us.len() as u64
    }
}

struct Churn<'a> {
    svc: &'a mut Service,
    docs: &'a mut Docs,
    queries: &'a mut Queries,
    next_query: usize,
    alive: VecDeque<QueryId>,
    rng: Rng,
}

impl Churn<'_> {
    fn event_burst(
        &mut self,
        pass: &mut Pass,
        ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
        parent: Option<SpanId>,
    ) {
        // `max_coalesce` events (256 by default), so each burst drains as one
        // `process_batch`, nothing is shed, and every burst spans about one
        // warm checkpoint per shard (one every 256 mutations by default).
        // With bursts of 64, a quarter of them paid a checkpoint clone and
        // the median burst sat between those that did and those that did
        // not.
        let size = self.svc.config().max_coalesce;
        let g0 = Instant::now();
        let batch = self.docs.take(size);
        ctx.tracer
            .record("generate", g0, Instant::now(), parent, None);
        let t0 = Instant::now();
        let mut offered_at = Vec::with_capacity(size);
        for doc in batch {
            let id = doc.id.0;
            let s = Instant::now();
            let admission = self.svc.offer_document(doc);
            let e = Instant::now();
            ctx.tracer.record("offer", s, e, parent, Some(id));
            pass.offer_us.push((e - s).as_secs_f64() * 1e6);
            pass.high_water = pass.high_water.max(self.svc.depth());
            if admission.is_retry() {
                pass.retries += 1;
            } else {
                offered_at.push(s);
            }
        }
        pass.events_offered += size as u64;
        let (report, pump_start, pump_end) = pass.events.pump(self.svc, ctx, parent);
        crate::stack::log_drain(ctx.log, &report, &mut VecDeque::new());
        // Every event of a burst was due when the client issued the burst
        // and completes with its pump, so the burst — not the event — is one
        // latency sample.
        pass.latency_us.push((pump_end - t0).as_secs_f64() * 1e6);
        pass.queue_wait_us.extend(
            offered_at
                .iter()
                .take(report.processed.len())
                .map(|&s| (pump_start - s).as_secs_f64() * 1e6),
        );
        pass.event_s += (pump_end - t0).as_secs_f64();
    }

    fn subscription_burst(
        &mut self,
        pass: &mut Pass,
        ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let burst = subscribe(
            self.svc,
            self.queries,
            self.next_query,
            CHURN_BURST,
            &mut pass.registrations,
            ctx,
            parent,
        )?;
        self.next_query += CHURN_BURST;
        self.alive.extend(&burst.ids);
        pass.subscribed.absorb(&burst);
        Ok(())
    }

    fn deregistration(
        &mut self,
        pass: &mut Pass,
        ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
        parent: Option<SpanId>,
    ) {
        let oldest: Vec<QueryId> = self
            .alive
            .drain(..CHURN_BURST.min(self.alive.len()))
            .collect();
        let (times, unknown) = unsubscribe(self.svc, &oldest, ctx, parent);
        pass.deregister_us.extend(times);
        pass.unknown_deregistrations += unknown;
    }

    /// Runs rounds until `done(rounds, registrations, seconds)` holds.
    fn pass(
        &mut self,
        ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
        done: impl Fn(usize, usize, f64) -> bool,
    ) -> Result<Pass, String> {
        let span = ctx.tracer.open("pass", None);
        let mut pass = Pass::default();
        let gen_before = self.docs.gen_seconds();
        let start = Instant::now();
        let elapsed =
            |docs: &Docs| start.elapsed().as_secs_f64() - (docs.gen_seconds() - gen_before);
        while !done(
            pass.rounds,
            pass.subscribed.register_ms.len(),
            elapsed(self.docs),
        ) {
            let mut steps = vec![Step::Events; EVENT_BURSTS];
            steps.extend([Step::Subscribe, Step::Unsubscribe]);
            self.rng.shuffle(&mut steps);
            let round = ctx.tracer.open("round", span);
            for step in steps {
                match step {
                    Step::Events => self.event_burst(&mut pass, ctx, round),
                    Step::Subscribe => self.subscription_burst(&mut pass, ctx, round)?,
                    Step::Unsubscribe => self.deregistration(&mut pass, ctx, round),
                }
            }
            ctx.tracer.close(round);
            pass.rounds += 1;
            pass.round_ends.push(RoundEnd {
                bursts: pass.latency_us.len(),
                pumps: pass.events.pump_event_us.len(),
                registrations: pass.subscribed.register_ms.len(),
                events: pass.events.events,
                event_s: pass.event_s,
                loop_s: elapsed(self.docs),
            });
        }
        pass.loop_s = elapsed(self.docs);
        ctx.tracer.close(span);
        Ok(pass)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut docs = Docs::new(args.seed);
    let mut queries = Queries::new(args.seed);
    let fill = docs.take(WINDOW_DOCS);
    let workload = queries.slice(0..QUERIES);
    let query_build_ms = queries.build_ms();
    let mut m = Metrics::default();
    let (mut svc, ids) = crate::repeated_setup(&mut m, || crate::stack::setup(&fill, &workload))?;
    let mut log = crate::gate::OpLog::default();
    crate::log_setup(&mut log, &fill, &ids);
    drop(fill);
    for &id in &sample_queries(&ids, SELF_CHECK_STRIDE) {
        log.check(id, svc.results(id));
    }
    let mut ctx = Ctx {
        tracer: &mut tracer,
        log: &mut log,
        shard_busy,
    };
    let mut churn = Churn {
        svc: &mut svc,
        docs: &mut docs,
        queries: &mut queries,
        next_query: QUERIES,
        alive: ids.iter().copied().collect(),
        rng: Rng::new(args.seed),
    };
    let mut warmup = Pass::default();
    for _ in 0..WARMUP_BURSTS {
        churn.event_burst(&mut warmup, &mut ctx, None);
    }
    let seconds = args.seconds;
    let plain = churn.pass(&mut ctx, |_, registrations, elapsed| {
        elapsed >= seconds && registrations >= MIN_REGISTRATIONS
    })?;
    let mut attempted = warmup.attempted() + plain.attempted();
    let mut failed = warmup.failures() + plain.failures();
    let mut problems = Vec::new();

    // Every timing below is the median over rounds of that round's
    // statistic (`stats::grouped`), so a slow phase of the host that covers
    // a minority of the rounds moves it little.
    let rounds = plain.rounds;
    let engine_us = plain.by_round(&plain.events.pump_event_us, |r| r.pumps);
    m.set_tail("event_us_p50", grouped(engine_us, median));
    m.set_tail("event_us_p99", tail(&plain.events.pump_event_us, 99.0));
    m.set(
        "events_per_s",
        median(&plain.round_rates(|r| r.event_s))
            .expect("rounds ran")
            .value,
        format!(
            "median over {rounds} rounds of events / offer + pump time of their event bursts; {} events in {:.3} s",
            plain.events.events, plain.event_s
        ),
    );
    let latency_us = plain.by_round(&plain.latency_us, |r| r.bursts);
    m.set_tail("latency_us_p50", grouped(latency_us, median));
    m.set_tail("latency_us_p99", tail(&plain.latency_us, 99.0));
    m.set(
        "sustainable_eps",
        median(&plain.round_rates(|r| r.loop_s))
            .expect("rounds ran")
            .value,
        format!(
            "median over {rounds} rounds of events / round time, the whole churn loop ({:.3} s)",
            plain.loop_s
        ),
    );
    let register_ms = plain.by_round(&plain.subscribed.register_ms, |r| r.registrations);
    m.set_tail("register_ms_p50", grouped(register_ms, median));
    m.set_tail("register_ms_p99", tail(&plain.subscribed.register_ms, 99.0));
    m.set("peak_rss_mb", peak_rss_mb()?, "VmHWM");

    if args.trace {
        ctx.tracer.set_enabled(true);
        let migrations = churn.svc.engine().migrations();
        let alive: Vec<QueryId> = churn.alive.iter().copied().collect();
        let before = QuerySnapshot::take(&alive, |id| churn.svc.engine().query_stats(id));
        let traced = churn.pass(&mut ctx, |done, _, _| done >= rounds)?;
        // Every query alive before the traced pass is deregistered during
        // it, so the deltas have no query to run over (and are reported as
        // n/a); the mean result-set size is read over the queries alive
        // after it.
        let alive_after: Vec<QueryId> = churn.alive.iter().copied().collect();
        let after = QuerySnapshot::take(&alive_after, |id| churn.svc.engine().query_stats(id));
        attempted += traced.attempted();
        failed += traced.failures();
        let meter = &traced.events;
        after.set_since(&before, meter.events, &mut m);
        meter.work().set(&mut m);
        if let Err(problem) = meter.set_layers(&mut m) {
            problems.push(problem);
        }
        let svc = &*churn.svc;
        set_index(&svc.engine().shard_index_stats(), &mut m);
        set_faults(svc.engine().fault_stats(), &mut m);
        m.not_applicable("corpus.lag_us_p99", "closed loop, no schedule");
        m.set_tail("service.queue_wait_us_p50", median(&traced.queue_wait_us));
        m.set_tail(
            "service.queue_wait_us_p99",
            tail(&traced.queue_wait_us, 99.0),
        );
        m.set(
            "service.queue_high_water",
            traced.high_water as f64,
            "deepest queue of the pass",
        );
        m.set_tail("service.offer_us_p99", tail(&traced.offer_us, 99.0));
        m.set(
            "service.shed",
            (traced.events.shed + traced.registrations.shed) as f64,
            "every shed is also a failure here",
        );
        let subscribed = &traced.subscribed;
        m.set(
            "service.retry",
            (traced.retries + subscribed.retries) as f64,
            "Retry admissions",
        );
        m.set(
            "service.register_immediate_frac",
            ratio(subscribed.immediate as f64, subscribed.offered as f64),
            format!("{} registrations", subscribed.offered),
        );
        m.set_tail("service.deregister_us_p50", median(&traced.deregister_us));
        m.set_tail("service.results_us_p50", median(&subscribed.results_us));
        set_load_skew(svc, &mut m);
        m.set(
            "sharded.migrations",
            (svc.engine().migrations() - migrations) as f64,
            "during the traced pass",
        );
        m.set("corpus.gen_us_per_doc", churn.docs.gen_us_per_doc(), "");
        m.set(
            "text.query_build_ms",
            query_build_ms,
            "1,000 cosine queries",
        );
        m.not_applicable(
            "ita.register_postings_per_query",
            "the sharded engine exports no registration-postings counter",
        );
        let per_event = |p: &Pass| p.loop_s / p.events.events as f64;
        m.set(
            "trace.overhead_frac",
            per_event(&traced) / per_event(&plain) - 1.0,
            format!("whole loop per event; {} spans", ctx.tracer.spans().len()),
        );
        ctx.tracer
            .write(&crate::trace_path(args))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    let alive: Vec<QueryId> = churn.alive.iter().copied().collect();
    for &id in &sample_queries(&alive, SELF_CHECK_STRIDE) {
        ctx.log.check(id, churn.svc.results(id));
    }
    let faults = churn.svc.engine().fault_stats().unwrap_or_default().faults;
    if faults > 0 {
        problems.push(format!("{faults} shard faults"));
    }
    drop(svc);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed: failed + faults,
        log,
        problems,
    })
}
