//! `fig3-closed`: the paper's own metric, single-threaded.
//!
//! Setup: `ItaEngine::new` over the 10k window, filled, then the 1,000
//! queries registered in bulk. Loop: closed, one client; each pre-generated
//! steady-state event goes through `process_document`; after every chunk
//! of 1,024 events, 16 further queries are registered one by one (and
//! removed again) for the registration latency. Nearly all work is in `cts-index` and `ita`; the
//! service, coordinator and fault layers are bypassed.

use std::time::Instant;

use cts_core::validate::sample_queries;
use cts_core::{Engine, ItaConfig, ItaEngine};

use crate::gate::OpLog;
use crate::inputs::{window, Docs, Queries, QUERIES, WINDOW_DOCS};
use crate::layers::{set_faults, set_index, EventWork, QuerySnapshot};
use crate::report::{peak_rss_mb, Metrics};
use crate::stack::REFERENCE_RATE;
use crate::stats::{fifo_sojourn, mean, mean_stat, median, tail, windowed};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome, SELF_CHECK_STRIDE};

/// Untimed events after setup, so lazy structures settle before measuring.
const WARMUP_EVENTS: usize = 1_000;
/// Documents generated per batch, between timed calls.
const CHUNK: usize = 1_024;
/// Queries registered one by one (and removed again) after each chunk of
/// events, so registration is sampled across the whole run.
const PROBE_PER_CHUNK: usize = 16;
/// Every `PROBE_CHECK_STRIDE`-th probe query's first results go to the gate.
const PROBE_CHECK_STRIDE: usize = 10;

/// One measured phase.
#[derive(Debug, Default)]
struct Phase {
    /// `process_document` duration per event, µs.
    service_us: Vec<f64>,
    /// Phase wall time minus document generation and registration probes,
    /// s.
    wall_s: f64,
    work: EventWork,
    /// `register` duration per probe query, ms.
    register_ms: Vec<f64>,
    /// Probe queries the engine did not know when removing them.
    unknown: u64,
}

/// Registers the next [`PROBE_PER_CHUNK`] queries one at a time, then
/// removes them, so the events that follow see the workload unchanged.
fn probe(
    engine: &mut ItaEngine,
    queries: &mut Queries,
    next_query: &mut usize,
    phase: &mut Phase,
    log: &mut OpLog,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) {
    let mut ids = Vec::with_capacity(PROBE_PER_CHUNK);
    for _ in 0..PROBE_PER_CHUNK {
        let index = *next_query;
        *next_query += 1;
        let query = queries.get(index).clone();
        let t0 = Instant::now();
        let id = engine.register(query);
        let t1 = Instant::now();
        tracer.record("register", t0, t1, parent, Some(index as u64));
        phase.register_ms.push((t1 - t0).as_secs_f64() * 1e3);
        log.register(id, index);
        if index.is_multiple_of(PROBE_CHECK_STRIDE) {
            log.check(id, engine.current_results(id));
        }
        ids.push(id);
    }
    for id in ids {
        let t0 = Instant::now();
        let removed = engine.deregister(id);
        tracer.record(
            "deregister",
            t0,
            Instant::now(),
            parent,
            Some(u64::from(id.0)),
        );
        if removed {
            log.deregister(id);
        } else {
            phase.unknown += 1;
        }
    }
}

fn measure(
    engine: &mut ItaEngine,
    docs: &mut Docs,
    queries: &mut Queries,
    next_query: &mut usize,
    log: &mut OpLog,
    tracer: &mut Tracer,
    seconds: f64,
) -> Phase {
    let span = tracer.open("measure", None);
    let mut phase = Phase::default();
    let mut busy = 0.0;
    let mut probing = 0.0;
    let gen_before = docs.gen_seconds();
    let start = Instant::now();
    'run: loop {
        let g0 = Instant::now();
        let chunk = docs.take(CHUNK);
        tracer.record("generate", g0, Instant::now(), span, None);
        for doc in chunk {
            let id = doc.id;
            let t0 = Instant::now();
            let outcome = engine.process_document(doc);
            let t1 = Instant::now();
            tracer.record("process", t0, t1, span, Some(id.0));
            log.event(id);
            let took = (t1 - t0).as_secs_f64();
            phase.service_us.push(took * 1e6);
            phase.work.events += 1;
            phase.work.touched_arrival += outcome.queries_touched_by_arrival as u64;
            phase.work.touched_expiration += outcome.queries_touched_by_expiration as u64;
            phase.work.results_changed += outcome.results_changed as u64;
            busy += took;
            if busy >= seconds {
                break 'run;
            }
        }
        let p0 = Instant::now();
        probe(engine, queries, next_query, &mut phase, log, tracer, span);
        probing += p0.elapsed().as_secs_f64();
    }
    phase.wall_s = start.elapsed().as_secs_f64() - (docs.gen_seconds() - gen_before) - probing;
    tracer.close(span);
    phase
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut docs = Docs::new(args.seed);
    let mut queries = Queries::new(args.seed);
    let fill = docs.take(WINDOW_DOCS);
    let workload = queries.slice(0..QUERIES);
    let query_build_ms = queries.build_ms();

    let mut m = Metrics::default();
    let (mut engine, ids) = crate::repeated_setup(&mut m, || {
        let (batch, qs) = (fill.clone(), workload.clone());
        let start = Instant::now();
        let mut engine = ItaEngine::new(window(), ItaConfig::default());
        for doc in batch {
            engine.process_document(doc);
        }
        let ids = engine.register_batch(qs);
        Ok(((engine, ids), start.elapsed().as_secs_f64()))
    })?;
    let mut log = OpLog::default();
    crate::log_setup(&mut log, &fill, &ids);
    drop(fill);
    let sampled = sample_queries(&ids, SELF_CHECK_STRIDE);
    for &id in &sampled {
        log.check(id, engine.current_results(id));
    }

    for doc in docs.take(WARMUP_EVENTS) {
        log.event(doc.id);
        engine.process_document(doc);
    }

    let mut next_query = QUERIES;
    let plain = measure(
        &mut engine,
        &mut docs,
        &mut queries,
        &mut next_query,
        &mut log,
        &mut tracer,
        args.seconds,
    );
    let attempted_in = |p: &Phase| p.work.events + 2 * p.register_ms.len() as u64;
    let mut attempted = attempted_in(&plain);
    let mut failed = plain.unknown;

    m.set_tail("event_us_p50", windowed(&plain.service_us, median));
    m.set_tail(
        "event_us_p99",
        windowed(&plain.service_us, |w| tail(w, 99.0)),
    );
    let mean_us = windowed(&plain.service_us, mean_stat).expect("events were measured");
    m.set(
        "events_per_s",
        1e6 / mean_us.value,
        format!(
            "1 / mean process_document time, median over {} windows; {} events",
            mean_us.windows, plain.work.events
        ),
    );
    // A single-thread engine's per-event cost does not depend on arrival
    // times, so replaying the measured service times through a FIFO queue
    // is what an open-loop client would see at the given rate.
    let sojourn = fifo_sojourn(&plain.service_us, REFERENCE_RATE);
    m.set_tail("latency_us_p50", windowed(&sojourn, median));
    m.set_tail("latency_us_p99", windowed(&sojourn, |w| tail(w, 99.0)));
    // A closed loop cannot build a backlog: the rate it sustained is the
    // rate it achieved, bookkeeping between calls included.
    m.set(
        "sustainable_eps",
        plain.work.events as f64 / plain.wall_s,
        format!(
            "{} events in {:.3} s of loop",
            plain.work.events, plain.wall_s
        ),
    );
    m.set_tail("register_ms_p50", median(&plain.register_ms));
    m.set_tail("register_ms_p99", tail(&plain.register_ms, 99.0));
    m.set("peak_rss_mb", peak_rss_mb()?, "VmHWM");

    if args.trace {
        tracer.set_enabled(true);
        let before = QuerySnapshot::take(&ids, |id| engine.query_stats(id));
        let traced = measure(
            &mut engine,
            &mut docs,
            &mut queries,
            &mut next_query,
            &mut log,
            &mut tracer,
            args.seconds,
        );
        let after = QuerySnapshot::take(&ids, |id| engine.query_stats(id));
        attempted += attempted_in(&traced);
        failed += traced.unknown;
        after.set_since(&before, traced.work.events, &mut m);
        traced.work.set(&mut m);
        set_index(&[engine.index_stats()], &mut m);
        set_faults(engine.fault_stats(), &mut m);
        m.set("corpus.gen_us_per_doc", docs.gen_us_per_doc(), "");
        m.not_applicable("corpus.lag_us_p99", "closed loop, no schedule");
        m.set(
            "text.query_build_ms",
            query_build_ms,
            "1,000 cosine queries",
        );
        m.set(
            "ita.process_us_per_event",
            mean(&traced.service_us),
            format!("{} events", traced.work.events),
        );
        m.set(
            "ita.register_postings_per_query",
            engine.register_postings_touched() as f64 / next_query as f64,
            "register_postings_touched()",
        );
        for name in [
            "sharded.call_us_per_event",
            "sharded.busy_us_per_event",
            "sharded.critical_us_per_event",
            "sharded.parallel_util",
            "sharded.unattributed_us_per_event",
            "sharded.load_skew",
            "sharded.migrations",
        ] {
            m.not_applicable(name, "single-thread engine");
        }
        for name in [
            "service.queue_wait_us_p50",
            "service.queue_wait_us_p99",
            "service.self_us_per_event",
            "service.coalesced_frac",
            "service.mean_burst",
            "service.queue_high_water",
            "service.offer_us_p99",
            "service.shed",
            "service.retry",
            "service.register_immediate_frac",
            "service.deregister_us_p50",
            "service.results_us_p50",
        ] {
            m.not_applicable(name, "no service front-end");
        }
        let per_event = |p: &Phase| p.wall_s / p.work.events as f64;
        m.set(
            "trace.overhead_frac",
            per_event(&traced) / per_event(&plain) - 1.0,
            format!("{} spans", tracer.spans().len()),
        );
        tracer
            .write(&crate::trace_path(args))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    for &id in &sampled {
        log.check(id, engine.current_results(id));
    }
    drop(engine);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        log,
        problems: Vec::new(),
    })
}
