//! `serve-open`: the deployed path under open-loop load.
//!
//! Setup: the default stack (service over two shards), window filled
//! through the service, 1,000 queries registered in bulk, then a short
//! closed-loop warm-up. A pass first climbs the ladder: rungs doubling the
//! rate from the reference until one misses the p99 limit or shows a
//! growing backlog. It then runs one cycle per 1.25 s of `--seconds` (32 at
//! the benchmark's 40 s). Each cycle registers ten queries through
//! `offer_register` on the idle service (and removes them), runs a stretch
//! of the reference rung at the paper's 200 events/s, a stretch of the
//! closed-loop rung (offer `max_coalesce` events, then pump) and one
//! staircase rung. The staircase starts √2 above the last rate the climb
//! met, steps up after a rung that met the limit and down after one that
//! missed it, and halves its step at every reversal, from √2 down to
//! 2^(1/16) (about 4%). So it settles around the highest rate the stack
//! sustains, even when a slow moment of the host ended the climb early. A
//! shared host's speed swings by ±20% from one second to the next;
//! spreading each measurement over the whole pass in short stretches
//! averages those swings instead of sampling a few of them. It exercises
//! queue wait, coalescing, coordinator fan-out and merge, worker ITA and
//! the warm-checkpoint tax.

use std::time::Instant;

use cts_core::validate::sample_queries;
use cts_core::Engine;
use cts_index::QueryId;

use crate::gate::OpLog;
use crate::inputs::{Docs, Queries, QUERIES, WINDOW_DOCS};
use crate::layers::{set_faults, set_index, QuerySnapshot};
use crate::report::{peak_rss_mb, Metrics};
use crate::stack::{
    closed_rung, open_rung, set_load_skew, shard_busy, subscribe, unsubscribe, Ctx, PumpMeter,
    Rung, Service, Subscribe, LATENCY_LIMIT_US, REFERENCE_RATE,
};
use crate::stats::{grouped, median, ratio, tail, windowed};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome, SELF_CHECK_STRIDE};

/// Untimed closed-loop warm-up after setup, seconds of pump time.
const WARMUP_SECONDS: f64 = 0.5;
/// Seconds of `--seconds` per cycle of registration probe, reference
/// stretch, closed-loop stretch and staircase rung. A cycle lasts about a
/// second, the time scale on which the host's speed swings, so a pass
/// averages one swing per cycle.
const CYCLE_SECONDS: f64 = 1.25;
/// Share of `--seconds` spent on the reference rung (over all cycles)…
const REFERENCE_SHARE: f64 = 0.25;
/// …which runs at least this many events, so its p99 has ten beyond it.
const MIN_REFERENCE_EVENTS: usize = 1_000;
/// Share of `--seconds` spent on the closed-loop rung (over all cycles).
const CLOSED_SHARE: f64 = 0.2;
/// Registrations offered per cycle on the idle service.
const PROBES_PER_CYCLE: usize = 10;
/// The climb doubles the rate from the reference rate this many times at
/// most, stopping at the first rate that misses the limit.
const CLIMB_STEPS: u32 = 7;
/// The staircase's first step, as a power of two (a factor of √2)…
const FIRST_STAIR_LOG2: f64 = 0.5;
/// …halved at every reversal down to this one (2^(1/16), about 4%).
const LAST_STAIR_LOG2: f64 = 1.0 / 16.0;
/// Seconds spent on each climbing or staircase rung.
const STEP_SECONDS: f64 = 0.4;

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    probe: Subscribe,
    /// Registration latencies, ms, one list per cycle.
    register_ms: Vec<Vec<f64>>,
    probe_failures: u64,
    deregister_us: Vec<f64>,
    /// The reference rung's stretches, one per cycle.
    reference: Vec<Rung>,
    /// The closed-loop rung's stretches, one per cycle.
    closed: Vec<Rung>,
    /// The climbing rungs, in the order run.
    climb: Vec<Rung>,
    /// The staircase rungs, one per cycle.
    stairs: Vec<Rung>,
    /// Index of the first staircase rung reached with the final step.
    settled_from: Option<usize>,
    /// Peak RSS after warm-up, MB: the ladder's documents (up to 10,240 at
    /// the climb's fastest rung) belong to the benchmark.
    rss_mb: f64,
}

impl Pass {
    fn open_rungs(&self) -> impl Iterator<Item = &Rung> {
        self.reference.iter().chain(&self.climb).chain(&self.stairs)
    }

    /// The climbing and staircase rungs.
    fn ladder(&self) -> impl Iterator<Item = &Rung> {
        self.climb.iter().chain(&self.stairs)
    }

    fn all_rungs(&self) -> impl Iterator<Item = &Rung> {
        self.open_rungs().chain(&self.closed)
    }

    /// Latency of every reference event, in the order they were due.
    fn reference_latencies(&self) -> Vec<f64> {
        self.reference.iter().flat_map(Rung::latencies).collect()
    }

    /// Latencies of the reference events, one list per cycle.
    fn reference_latencies_by_cycle(&self) -> Vec<Vec<f64>> {
        self.reference.iter().map(Rung::latencies).collect()
    }

    /// Whether the reference rate met the limit: nothing shed or refused,
    /// and the p99 of all its stretches pooled within the limit. A stretch
    /// is too short for the backlog test of a single rung, and at a
    /// fiftieth of the stack's capacity no backlog builds.
    fn reference_passes(&self) -> bool {
        self.reference
            .iter()
            .all(|r| r.meter.shed == 0 && r.retries == 0 && r.latencies().len() == r.offered)
            && tail(&self.reference_latencies(), 99.0).is_some_and(|t| t.value <= LATENCY_LIMIT_US)
    }

    /// The rate the stack sustains: the geometric mean of the rates the
    /// staircase ran once its step reached its final size. The staircase
    /// then steps up after every rung that met the limit and down after
    /// every one that missed, so it hovers around the highest rate that
    /// meets the limit, and the mean is taken over rungs spread across the
    /// whole pass rather than one rung at one moment. If no such rung met
    /// the limit: the fastest climbing rung that met it, else all reference
    /// stretches pooled; 0 when the reference rate missed.
    fn sustainable_eps(&self) -> f64 {
        if !self.reference_passes() {
            return 0.0;
        }
        let settled = self.settled_from.map_or(&[][..], |i| &self.stairs[i..]);
        if settled.iter().any(Rung::passes) {
            let log_sum: f64 = settled.iter().map(|r| r.rate.ln()).sum();
            return (log_sum / settled.len() as f64).exp();
        }
        self.climb
            .iter()
            .filter(|r| r.passes())
            .max_by(|a, b| a.rate.total_cmp(&b.rate))
            .map_or(pooled_eps(&self.reference), |r| r.achieved_eps)
    }

    fn meters(&self) -> PumpMeter {
        let mut all = PumpMeter::default();
        for rung in self.all_rungs() {
            all.absorb(&rung.meter);
        }
        all
    }

    /// Events offered, registrations offered, deregistrations and result
    /// reads.
    fn attempted(&self) -> u64 {
        let events: u64 = self.all_rungs().map(|r| r.offered as u64).sum();
        events
            + self.probe.offered
            + self.deregister_us.len() as u64
            + self.probe.results_us.len() as u64
    }

    /// Events shed by climbing or staircase rungs that missed the limit: an
    /// overloaded rung ends the climb (or turns the staircase down) and may
    /// shed.
    fn overload_sheds(&self) -> u64 {
        self.ladder()
            .filter(|r| !r.passes())
            .map(|r| r.meter.shed)
            .sum()
    }

    /// Refused offers and unknown deregistrations, plus sheds anywhere but
    /// on the ladder rungs that missed the limit.
    fn failures(&self) -> u64 {
        let all_sheds: u64 = self.all_rungs().map(|r| r.meter.shed).sum();
        let retries: u64 = self.all_rungs().map(|r| r.retries).sum();
        all_sheds - self.overload_sheds() + retries + self.probe.retries + self.probe_failures
    }
}

/// Processed events per second over several stretches of one rung.
fn pooled_eps(stretches: &[Rung]) -> f64 {
    let events: f64 = stretches.iter().map(|r| r.meter.events as f64).sum();
    let seconds: f64 = stretches
        .iter()
        .map(|r| r.meter.events as f64 / r.achieved_eps)
        .sum();
    events / seconds
}

fn rung_at(
    svc: &mut Service,
    docs: &mut Docs,
    rate: f64,
    events: usize,
    ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
    parent: Option<SpanId>,
) -> Rung {
    let g0 = Instant::now();
    let batch = docs.take(events);
    ctx.tracer
        .record("generate", g0, Instant::now(), parent, None);
    let span = ctx.tracer.open("rung", parent);
    let rung = open_rung(svc, batch, rate, ctx, span);
    ctx.tracer.close(span);
    let (p99, growth) = rung.tail_and_growth();
    eprintln!(
        "rung {rate:.0}/s: {} events, p99 {:.1} ms, backlog growth {:.1} ms, {} shed, high water {} -> {}",
        rung.offered,
        p99 / 1e3,
        growth / 1e3,
        rung.meter.shed,
        rung.high_water,
        if rung.passes() { "met" } else { "missed" }
    );
    rung
}

fn closed_at(
    svc: &mut Service,
    docs: &mut Docs,
    seconds: f64,
    ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
    parent: Option<SpanId>,
) -> Rung {
    let span = ctx.tracer.open("rung", parent);
    let rung = closed_rung(svc, |n| docs.take(n), seconds, ctx, span);
    ctx.tracer.close(span);
    rung
}

/// Cycles per pass for `seconds` of measurement.
fn cycles(seconds: f64) -> usize {
    ((seconds / CYCLE_SECONDS).round() as usize).max(4)
}

fn pass(
    svc: &mut Service,
    docs: &mut Docs,
    queries: &mut Queries,
    next_query: &mut usize,
    seconds: f64,
    ctx: &mut Ctx<'_, cts_core::ShardedItaEngine>,
) -> Result<Pass, String> {
    let span = ctx.tracer.open("pass", None);
    let mut pass = Pass {
        rss_mb: peak_rss_mb()?,
        ..Pass::default()
    };
    let rung_of = |rate: f64| ((rate * STEP_SECONDS) as usize).max(1);
    // The climb brackets the capacity. A rate counts as missed only when two
    // rungs at it miss in a row, so one transient stall of the machine
    // cannot end the climb early.
    let mut met = REFERENCE_RATE;
    for k in 1..=CLIMB_STEPS {
        let rate = REFERENCE_RATE * f64::from(1u32 << k);
        let passed = (0..2).any(|_| {
            let rung = rung_at(svc, docs, rate, rung_of(rate), ctx, span);
            let passed = rung.passes();
            pass.climb.push(rung);
            passed
        });
        if !passed {
            break;
        }
        met = rate;
    }
    let mut stair_log2 = FIRST_STAIR_LOG2;
    let mut stair_rate = met * stair_log2.exp2();
    let mut last_passed = None;
    let reference_events =
        MIN_REFERENCE_EVENTS.max((REFERENCE_SHARE * seconds * REFERENCE_RATE) as usize);
    let cycles = cycles(seconds);
    for _ in 0..cycles {
        let mut probe_meter = PumpMeter::default();
        let count = PROBES_PER_CYCLE;
        let probe = subscribe(
            svc,
            queries,
            *next_query,
            count,
            &mut probe_meter,
            ctx,
            span,
        )?;
        *next_query += count;
        let (deregister_us, unknown) = unsubscribe(svc, &probe.ids, ctx, span);
        pass.probe.absorb(&probe);
        pass.register_ms.push(probe.register_ms);
        pass.deregister_us.extend(deregister_us);
        pass.probe_failures += unknown;
        let stretch = reference_events / cycles;
        pass.reference
            .push(rung_at(svc, docs, REFERENCE_RATE, stretch, ctx, span));
        pass.closed.push(closed_at(
            svc,
            docs,
            CLOSED_SHARE * seconds / cycles as f64,
            ctx,
            span,
        ));
        let stair = rung_at(svc, docs, stair_rate, rung_of(stair_rate), ctx, span);
        let passed = stair.passes();
        if last_passed.is_some_and(|before| before != passed) {
            stair_log2 = (stair_log2 / 2.0).max(LAST_STAIR_LOG2);
        }
        last_passed = Some(passed);
        if passed {
            stair_rate *= stair_log2.exp2();
        } else {
            stair_rate /= stair_log2.exp2();
        }
        pass.stairs.push(stair);
        if stair_log2 <= LAST_STAIR_LOG2 && pass.settled_from.is_none() {
            pass.settled_from = Some(pass.stairs.len());
        }
    }
    ctx.tracer.close(span);
    Ok(pass)
}

fn check_sampled(svc: &Service, ids: &[QueryId], log: &mut OpLog) {
    for &id in &sample_queries(ids, SELF_CHECK_STRIDE) {
        log.check(id, svc.results(id));
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
    let mut log = OpLog::default();
    crate::log_setup(&mut log, &fill, &ids);
    drop(fill);
    check_sampled(&svc, &ids, &mut log);

    let mut ctx = Ctx {
        tracer: &mut tracer,
        log: &mut log,
        shard_busy,
    };
    let warmup = closed_at(&mut svc, &mut docs, WARMUP_SECONDS, &mut ctx, None);
    let mut next_query = QUERIES;
    let plain = pass(
        &mut svc,
        &mut docs,
        &mut queries,
        &mut next_query,
        args.seconds,
        &mut ctx,
    )?;
    let mut attempted = warmup.offered as u64 + plain.attempted();
    let mut failed = warmup.retries + warmup.meter.shed + plain.failures();
    let mut problems = Vec::new();

    // Every timing below is the median over the pass's cycles of that
    // cycle's statistic (`stats::grouped`), so a slow phase of the host that
    // covers a minority of the cycles moves it little.
    // Engine time per event where the engine works hardest: the closed-loop
    // rung, one sample per coalesced batch.
    let engine_us: Vec<Vec<f64>> = plain
        .closed
        .iter()
        .map(|r| r.meter.pump_event_us.clone())
        .collect();
    m.set_tail(
        "event_us_p50",
        grouped(engine_us.iter().map(Vec::as_slice), median),
    );
    m.set_tail("event_us_p99", tail(&engine_us.concat(), 99.0));
    let closed_events: u64 = plain.closed.iter().map(|r| r.meter.events).sum();
    let closed_eps: Vec<f64> = plain.closed.iter().map(|r| r.achieved_eps).collect();
    m.set(
        "events_per_s",
        median(&closed_eps)
            .expect("closed-loop stretches ran")
            .value,
        format!(
            "closed-loop rung, median over {} stretches; {closed_events} events",
            closed_eps.len()
        ),
    );
    let latencies = plain.reference_latencies_by_cycle();
    m.set_tail(
        "latency_us_p50",
        grouped(latencies.iter().map(Vec::as_slice), median),
    );
    m.set_tail(
        "latency_us_p99",
        windowed(&plain.reference_latencies(), |w| tail(w, 99.0)),
    );
    let ladder: Vec<String> = plain
        .ladder()
        .map(|r| format!("{:.0}/s:{}", r.rate, if r.passes() { "ok" } else { "miss" }))
        .collect();
    m.set(
        "sustainable_eps",
        plain.sustainable_eps(),
        format!(
            "geometric mean of the settled staircase rates; climb then staircase: {}",
            ladder.join(" ")
        ),
    );
    m.set_tail(
        "register_ms_p50",
        grouped(plain.register_ms.iter().map(Vec::as_slice), median),
    );
    m.set_tail("register_ms_p99", tail(&plain.probe.register_ms, 99.0));
    m.set("peak_rss_mb", plain.rss_mb, "VmHWM after warm-up");

    if args.trace {
        ctx.tracer.set_enabled(true);
        let migrations = svc.engine().migrations();
        let before = QuerySnapshot::take(&ids, |id| svc.engine().query_stats(id));
        let traced = pass(
            &mut svc,
            &mut docs,
            &mut queries,
            &mut next_query,
            args.seconds,
            &mut ctx,
        )?;
        let meter = traced.meters();
        let after = QuerySnapshot::take(&ids, |id| svc.engine().query_stats(id));
        attempted += traced.attempted();
        failed += traced.failures();
        after.set_since(&before, meter.events, &mut m);
        meter.work().set(&mut m);
        if let Err(problem) = meter.set_layers(&mut m) {
            problems.push(problem);
        }
        set_index(&svc.engine().shard_index_stats(), &mut m);
        set_faults(svc.engine().fault_stats(), &mut m);
        set_service_layers(&svc, &traced, &mut m);
        m.set(
            "sharded.migrations",
            (svc.engine().migrations() - migrations) as f64,
            "during the traced pass",
        );
        m.set("corpus.gen_us_per_doc", docs.gen_us_per_doc(), "");
        m.set(
            "text.query_build_ms",
            query_build_ms,
            "1,000 cosine queries",
        );
        m.not_applicable(
            "ita.register_postings_per_query",
            "the sharded engine exports no registration-postings counter",
        );
        m.set(
            "trace.overhead_frac",
            pooled_eps(&plain.closed) / pooled_eps(&traced.closed) - 1.0,
            format!("closed-loop rung; {} spans", ctx.tracer.spans().len()),
        );
        ctx.tracer
            .write(&crate::trace_path(args))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    check_sampled(&svc, &ids, ctx.log);
    let faults = svc.engine().fault_stats().unwrap_or_default().faults;
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

/// The `service.*` metrics of one pass, plus the generator's lateness and
/// the shard load skew.
fn set_service_layers(svc: &Service, pass: &Pass, m: &mut Metrics) {
    let pooled = |field: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        pass.reference
            .iter()
            .flat_map(|r| field(r).iter().copied())
            .collect()
    };
    m.set_tail("corpus.lag_us_p99", tail(&pooled(|r| &r.lag_us), 99.0));
    let wait = pooled(|r| &r.queue_wait_us);
    m.set_tail("service.queue_wait_us_p50", median(&wait));
    m.set_tail("service.queue_wait_us_p99", tail(&wait, 99.0));
    let all: Vec<&Rung> = pass.all_rungs().collect();
    let high_water = all.iter().map(|r| r.high_water).max().unwrap_or(0);
    m.set(
        "service.queue_high_water",
        high_water as f64,
        "deepest queue of the pass",
    );
    let offers: Vec<f64> = all
        .iter()
        .flat_map(|r| r.offer_us.iter().copied())
        .collect();
    m.set_tail("service.offer_us_p99", tail(&offers, 99.0));
    m.set(
        "service.shed",
        pass.overload_sheds() as f64,
        "sheds of the rungs that missed the limit",
    );
    let retries: u64 = all.iter().map(|r| r.retries).sum::<u64>() + pass.probe.retries;
    m.set("service.retry", retries as f64, "Retry admissions");
    m.set(
        "service.register_immediate_frac",
        ratio(pass.probe.immediate as f64, pass.probe.offered as f64),
        format!("{} registrations", pass.probe.offered),
    );
    m.set_tail("service.deregister_us_p50", median(&pass.deregister_us));
    m.set_tail("service.results_us_p50", median(&pass.probe.results_us));
    set_load_skew(svc, m);
}
