//! Event-engine workload: `EventEngine::run_until_parallel`, driven one
//! gossip period at a time, running `AsyncAdam2` through a hook-timing
//! adaptor.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;

use adam2_bench::setup;
use adam2_core::{
    uniform_points, Adam2Message, Adam2Node, AsyncAdam2, AsyncBatchReport, InstanceId, InstanceMeta,
};
use adam2_sim::{
    AsyncProtocol, BatchAsyncProtocol, BatchCtx, DriftOp, EventConfig, EventCtx, EventEngine,
    LatencyModel, NodeId,
};
use adam2_traces::Attribute;

use crate::probe::{now_ns, Probe};
use crate::report::{Ceilings, Fingerprint, Report, Run};
use crate::score::score_nodes;
use crate::stats::{self, process_cpu, ratio, Span};

pub struct EventParams {
    pub nodes: usize,
    pub lambda: usize,
    pub rounds_per_instance: u64,
    /// Gossip period in ticks.
    pub period: u64,
    /// Uniform message latency bounds in ticks.
    pub latency: (u64, u64),
    /// Output ceilings on Err_a and |N̂ − N| / N.
    pub ceilings: Ceilings,
}

impl EventParams {
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "event (run_until_parallel)".into()),
            ("nodes", self.nodes.to_string()),
            ("lambda", self.lambda.to_string()),
            ("rounds_per_instance", self.rounds_per_instance.to_string()),
            ("gossip_period_ticks", self.period.to_string()),
            (
                "latency_ticks",
                format!("uniform {}..={}", self.latency.0, self.latency.1),
            ),
            ("faults", "none".into()),
            ("thresholds", "uniform over the population's range".into()),
            ("attribute", "cpu".into()),
            (
                "loop",
                "closed: each tick is one batch, run after the previous one".into(),
            ),
        ]
    }
}

/// `AsyncAdam2` with every batch hook counted and, when timed, timed.
pub struct Hooked {
    inner: AsyncAdam2,
    timed: bool,
    timer: Probe,
    message: Probe,
    responses: Probe,
    timer_calls: u64,
    /// Ticks that ran at least one hook, and the hooks they ran.
    batches: u64,
    batch_events: u64,
    /// Each thread's runs of parallel hook calls, plus each serial
    /// `absorb_report` call, for the period in progress.
    spans: Vec<Span>,
    absorb_ns: u64,
    timer_busy_ns: u64,
    message_busy_ns: u64,
    hook_span_ns: u64,
}

impl Hooked {
    fn new(inner: AsyncAdam2, timed: bool) -> Self {
        Self {
            inner,
            timed,
            timer: Probe::new(timed),
            message: Probe::new(timed),
            responses: Probe::new(false),
            timer_calls: 0,
            batches: 0,
            batch_events: 0,
            spans: Vec::new(),
            absorb_ns: 0,
            timer_busy_ns: 0,
            message_busy_ns: 0,
            hook_span_ns: 0,
        }
    }

    /// Folds the parallel phase that just joined into per-tick totals.
    fn close_batch(&mut self) {
        if !self.timer.active() && !self.message.active() {
            return;
        }
        let mut t = self.timer.harvest();
        let mut m = self.message.harvest();
        self.batches += 1;
        self.timer_calls += t.calls;
        self.batch_events += t.calls + m.calls;
        self.timer_busy_ns += t.busy_ns;
        self.message_busy_ns += m.busy_ns;
        let mut hooks = std::mem::take(&mut t.intervals);
        hooks.append(&mut m.intervals);
        self.hook_span_ns += stats::union_ns(&mut hooks);
        self.spans.append(&mut hooks);
    }
}

impl AsyncProtocol for Hooked {
    type Node = Adam2Node;
    type Message = Adam2Message;

    fn make_node(&mut self, rng: &mut StdRng) -> Adam2Node {
        self.inner.make_node(rng)
    }

    fn on_timer(&mut self, id: NodeId, ctx: &mut EventCtx<'_, Adam2Node, Adam2Message>) {
        self.inner.on_timer(id, ctx);
    }

    fn on_message(
        &mut self,
        id: NodeId,
        from: NodeId,
        message: Adam2Message,
        ctx: &mut EventCtx<'_, Adam2Node, Adam2Message>,
    ) {
        self.inner.on_message(id, from, message, ctx);
    }

    fn drift_node(&mut self, id: NodeId, node: &mut Adam2Node, op: DriftOp, rng: &mut StdRng) {
        self.inner.drift_node(id, node, op, rng);
    }
}

impl BatchAsyncProtocol for Hooked {
    type Report = AsyncBatchReport;

    fn par_on_timer(
        &self,
        id: NodeId,
        node: &mut Adam2Node,
        ctx: &mut BatchCtx<'_, '_, Adam2Message>,
        report: &mut AsyncBatchReport,
    ) {
        self.timer
            .call(|| self.inner.par_on_timer(id, node, ctx, report));
    }

    fn par_on_message(
        &self,
        id: NodeId,
        node: &mut Adam2Node,
        from: NodeId,
        message: Adam2Message,
        ctx: &mut BatchCtx<'_, '_, Adam2Message>,
        report: &mut AsyncBatchReport,
    ) {
        if let Adam2Message::Response(_) = message {
            self.responses.count(1);
        }
        self.message.call(|| {
            self.inner
                .par_on_message(id, node, from, message, ctx, report)
        });
    }

    fn absorb_report(&mut self, report: AsyncBatchReport) {
        if !self.timed {
            self.inner.absorb_report(report);
            return;
        }
        self.close_batch();
        let start = now_ns();
        self.inner.absorb_report(report);
        let end = now_ns();
        self.absorb_ns += end - start;
        self.spans.push(Span { start, end });
    }
}

fn fingerprint(engine: &EventEngine<Hooked>) -> u64 {
    let mut fp = Fingerprint::new();
    for (_, node) in engine.nodes().iter() {
        match node.estimate() {
            Some(est) => {
                for f in &est.fractions {
                    fp.mix(f.to_bits());
                }
                fp.mix(est.n_hat.map_or(0, f64::to_bits));
            }
            None => fp.mix(u64::MAX),
        }
    }
    fp.mix(engine.delivered_count());
    fp.mix(engine.lost_count());
    fp.mix(engine.net().total_bytes());
    fp.mix(engine.net().total_msgs());
    fp.mix(engine.protocol().inner.completed_count());
    fp.finish()
}

fn pending(engine: &EventEngine<Hooked>, meta: &InstanceMeta) -> usize {
    engine
        .nodes()
        .iter()
        .filter(|(_, n)| n.estimate().is_none_or(|e| e.instance != meta.id))
        .count()
}

pub fn run(name: &'static str, p: &EventParams, seed: u64, seconds: f64, timed: bool) -> Report {
    let threads = crate::threads();
    let mut run = Run::new(name, seconds);
    let mut period_ms = Vec::new();
    let mut engine_wall_ns = 0u64;
    let mut measured_wall_ns = 0u64;
    let mut engine_self_ns = 0u64;
    let (mut timer_busy, mut message_busy, mut hook_span, mut absorb) = (0, 0, 0, 0);
    let (mut batches, mut batch_events) = (0u64, 0u64);
    let (mut delivered, mut lost, mut dup_dropped) = (0u64, 0u64, 0u64);
    let (mut err_a, mut n_hat_err) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut failed = 0u64;

    while run.wants_rep() {
        let t0 = Instant::now();
        let s = setup(Attribute::Cpu, p.nodes, seed);
        let population_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let pop = s.population.clone();
        let proto = AsyncAdam2::with_population(p.period, pop.values().to_vec(), move |rng| {
            pop.draw_fresh(rng)
        });
        let config = EventConfig::new(p.nodes, seed)
            .with_gossip_period(p.period)
            .with_latency(LatencyModel::Uniform {
                min: p.latency.0,
                max: p.latency.1,
            })
            .with_threads(threads);
        let mut engine = EventEngine::new(config, Hooked::new(proto, timed));
        let engine_s = t1.elapsed().as_secs_f64();
        run.setup_done(&[
            ("traces.population_s", population_s),
            ("sim.event.new_s", engine_s),
        ]);
        if !run.wants_measure() {
            continue;
        }

        let thresholds = uniform_points(s.truth.min(), s.truth.max(), p.lambda);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: thresholds.into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: p.rounds_per_instance,
            multi: false,
        });
        engine.with_ctx(|h, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("population non-empty");
            h.inner.start_instance(initiator, Arc::clone(&meta), ctx)
        });
        let cpu0 = process_cpu();
        let mut wall = 0.0;
        let mut periods = 0u64;
        let deadline = p.period * (p.rounds_per_instance + 3);
        let mut until = 0;
        loop {
            until += p.period;
            periods += 1;
            let t = Instant::now();
            let start = now_ns();
            engine.run_until_parallel(until);
            let end = now_ns();
            wall += t.elapsed().as_secs_f64();
            if timed {
                let h = engine.protocol_mut();
                h.close_batch();
                let span = Span { start, end };
                period_ms.push(span.len() as f64 / 1e6);
                engine_wall_ns += span.len();
                engine_self_ns += stats::self_ns(span, &mut h.spans);
                h.spans.clear();
            }
            if until >= deadline
                || until > p.period * p.rounds_per_instance && pending(&engine, &meta) == 0
            {
                break;
            }
        }
        let cpu = process_cpu().since(&cpu0).total();
        let h = engine.protocol_mut();
        // Every timer fire starts one exchange; a response reaching its
        // initiator completes one.
        let started = h.timer_calls + h.timer.harvest().calls;
        let completed = h.responses.harvest().calls;
        let live = engine.nodes().len();
        if timed {
            measured_wall_ns += (wall * 1e9) as u64;
        }
        run.sample("time_to_estimate_s", wall);
        run.sample("exchanges_per_s", ratio(completed as f64, wall));
        run.sample("cpu_us_per_exchange", ratio(cpu * 1e6, completed as f64));
        run.sample(
            "exchange_success_frac",
            ratio(completed as f64, started as f64),
        );
        run.sample(
            "bytes_per_node_round",
            ratio(
                engine.net().total_bytes() as f64,
                (live as u64 * periods) as f64,
            ),
        );

        let score = score_nodes(engine.nodes().iter().map(|(_, n)| n), &s.truth, seed);
        err_a.push(score.err_a);
        n_hat_err.push(score.n_hat_rel_err);
        run.sample("estimate_coverage", score.coverage());
        failed += score.without_estimate as u64;
        attempted += live as u64;
        run.fingerprint(fingerprint(&engine));

        let h = engine.protocol();
        timer_busy += h.timer_busy_ns;
        message_busy += h.message_busy_ns;
        hook_span += h.hook_span_ns;
        absorb += h.absorb_ns;
        batches += h.batches;
        batch_events += h.batch_events;
        delivered += engine.delivered_count();
        lost += engine.lost_count();
        dup_dropped += engine.dup_dropped_count();
        run.rep_done();
    }

    let mut report = run.finish(attempted, failed);
    report.check(
        "clean_run_leaves_no_node_without_estimate",
        failed == 0,
        format!("{failed} of {attempted} live nodes"),
    );
    p.ceilings.check(&mut report, &err_a, &n_hat_err);
    report.layer("err_a", "ratio", stats::median(&err_a).unwrap_or(0.0));
    report.layer(
        "n_hat_rel_err",
        "ratio",
        stats::median(&n_hat_err).unwrap_or(0.0),
    );
    if timed {
        let s = |ns: u64| ns as f64 / 1e9;
        report.check(
            "event_periods_account_for_wall",
            engine_wall_ns.abs_diff(measured_wall_ns) <= measured_wall_ns / 50,
            format!("periods {engine_wall_ns} vs time to estimate {measured_wall_ns} ns"),
        );
        report.check(
            "event_hook_busy_fits_spans",
            timer_busy + message_busy <= hook_span * threads as u64 + hook_span / 1000,
            format!(
                "busy {} vs span {hook_span} ns on {threads} threads",
                timer_busy + message_busy
            ),
        );
        let (p50, tail) = crate::report::p50_and_tail(&period_ms);
        report.layer("sim.event.period_ms_p50", "ms", p50);
        report.layer("sim.event.period_ms_tail", "ms", tail.1);
        report.note("sim.event.period_ms_tail_percentile", tail.0);
        report.note("sim.event.periods", period_ms.len() as f64);
        report.layer("sim.event.self_s", "s", s(engine_self_ns));
        report.layer(
            "sim.event.par_efficiency",
            "ratio",
            ratio(
                (timer_busy + message_busy) as f64,
                (hook_span * threads as u64) as f64,
            ),
        );
        report.layer("sim.event.batches", "count", batches as f64);
        report.layer(
            "sim.event.batch_width_mean",
            "count",
            ratio(batch_events as f64, batches as f64),
        );
        report.layer("sim.event.delivered", "count", delivered as f64);
        report.layer("sim.event.lost", "count", lost as f64);
        report.layer("sim.event.dup_dropped", "count", dup_dropped as f64);
        report.layer("core.async_protocol.timer_busy_s", "s", s(timer_busy));
        report.layer("core.async_protocol.message_busy_s", "s", s(message_busy));
        report.layer("core.async_protocol.absorb_s", "s", s(absorb));
    }
    report
}
