//! Cycle-engine workloads: `Engine::run_round_parallel` driving
//! `Adam2Protocol` through a hook-timing adaptor.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;

use adam2_bench::setup;
use adam2_core::{
    Adam2Config, Adam2Node, Adam2Protocol, AttrValue, BootstrapKind, InstanceMeta, RefineKind,
    StepCdf,
};
use adam2_sim::{
    derive_seed, ChurnModel, Ctx, DriftOp, Engine, EngineConfig, ExchangeFate, ExchangeRepair,
    ExchangeTraffic, NodeId, ParLocal, PlannedExchange, Protocol,
};
use adam2_traces::Attribute;

use crate::probe::{now_ns, Probe, MERGE_GAP_NS};
use crate::report::{Ceilings, Fingerprint, Report, Run};
use crate::score::score_nodes;
use crate::stats::{self, process_cpu, ratio, Span};

/// Parameters of one cycle-engine workload.
pub struct CycleParams {
    pub nodes: usize,
    pub lambda: usize,
    pub rounds_per_instance: u64,
    pub churn_rate: f64,
    pub loss_rate: f64,
    /// Instances run back to back on one engine per repetition; all but
    /// the first find a population that already holds estimates, which is
    /// what churn joiners bootstrap from.
    pub instances: usize,
    /// Verification points and self-heal restart threshold, when enabled.
    pub self_heal: Option<(usize, f64)>,
    /// Output ceilings on Err_a and, on fault-free runs, |N̂ − N| / N.
    pub ceilings: Ceilings,
}

impl CycleParams {
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "cycle".into()),
            ("nodes", self.nodes.to_string()),
            ("lambda", self.lambda.to_string()),
            ("rounds_per_instance", self.rounds_per_instance.to_string()),
            ("churn_per_round", self.churn_rate.to_string()),
            ("loss_rate", self.loss_rate.to_string()),
            ("repair", (self.loss_rate > 0.0).to_string()),
            ("instances_per_rep", self.instances.to_string()),
            (
                "self_heal",
                match self.self_heal {
                    Some((points, threshold)) => format!("verify_points={points} err>{threshold}"),
                    None => "off".into(),
                },
            ),
            ("attribute", "cpu".into()),
            (
                "thresholds",
                "uniform over the population's range, then refined".into(),
            ),
            (
                "loop",
                "closed: each round starts when the previous one returns".into(),
            ),
        ]
    }
}

/// Serial hooks and their summed durations for one layer.
#[derive(Default)]
struct Serial {
    calls: u64,
    ns: u64,
}

/// `Adam2Protocol` with every hook counted and, when timed, timed.
pub struct Hooked {
    inner: Adam2Protocol,
    timed: bool,
    local: Probe,
    apply: Probe,
    completes: Probe,
    aborts: Probe,
    lost: Probe,
    retransmits: Probe,
    absorb: Serial,
    joins: Serial,
    leaves: Serial,
    /// Serial hook intervals of the round in progress (timed runs only).
    serial_spans: Vec<Span>,
}

impl Hooked {
    fn new(inner: Adam2Protocol, timed: bool) -> Self {
        Self {
            inner,
            timed,
            local: Probe::new(timed),
            apply: Probe::new(timed),
            completes: Probe::new(false),
            aborts: Probe::new(false),
            lost: Probe::new(false),
            retransmits: Probe::new(false),
            absorb: Serial::default(),
            joins: Serial::default(),
            leaves: Serial::default(),
            serial_spans: Vec::new(),
        }
    }

    fn serial<R>(
        &mut self,
        which: fn(&mut Self) -> &mut Serial,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        which(self).calls += 1;
        if !self.timed {
            return f(self);
        }
        let start = now_ns();
        let out = f(self);
        let end = now_ns();
        which(self).ns += end - start;
        // Serial hooks run in loops over the nodes; calls close together
        // share one interval, as in `Probe`.
        match self.serial_spans.last_mut() {
            Some(last) if start.saturating_sub(last.end) <= MERGE_GAP_NS => last.end = end,
            _ => self.serial_spans.push(Span { start, end }),
        }
        out
    }
}

impl Protocol for Hooked {
    type Node = Adam2Node;

    fn make_node(&mut self, rng: &mut StdRng) -> Adam2Node {
        self.inner.make_node(rng)
    }

    fn on_round(&mut self, id: NodeId, ctx: &mut Ctx<'_, Adam2Node>) {
        self.inner.on_round(id, ctx);
    }

    fn on_join(&mut self, id: NodeId, ctx: &mut Ctx<'_, Adam2Node>) {
        self.serial(|h| &mut h.joins, |h| h.inner.on_join(id, ctx));
    }

    fn on_leave(&mut self, id: NodeId, node: Adam2Node) {
        self.serial(|h| &mut h.leaves, |h| h.inner.on_leave(id, node));
    }

    fn drift_node(&mut self, id: NodeId, node: &mut Adam2Node, op: DriftOp, rng: &mut StdRng) {
        self.inner.drift_node(id, node, op, rng);
    }

    fn parallel_capable(&self) -> bool {
        self.inner.parallel_capable()
    }

    fn par_local(
        &self,
        id: NodeId,
        node: &mut Adam2Node,
        round: u64,
        rng: &mut StdRng,
    ) -> ParLocal {
        self.local
            .call(|| self.inner.par_local(id, node, round, rng))
    }

    fn par_absorb(&mut self, id: NodeId, report: &ParLocal, ctx: &mut Ctx<'_, Adam2Node>) {
        self.serial(|h| &mut h.absorb, |h| h.inner.par_absorb(id, report, ctx));
    }

    fn par_apply(
        &self,
        plan: &PlannedExchange,
        round: u64,
        initiator: &mut Adam2Node,
        partner: &mut Adam2Node,
    ) -> ExchangeTraffic {
        match plan.fate {
            ExchangeFate::Complete => self.completes.count(1),
            ExchangeFate::Aborted => self.aborts.count(1),
            ExchangeFate::RequestLost | ExchangeFate::ResponseLost => self.lost.count(1),
        }
        let resent = plan.request_msgs.saturating_sub(1) + plan.response_msgs.saturating_sub(1);
        if resent > 0 {
            self.retransmits.count(u64::from(resent));
        }
        self.apply
            .call(|| self.inner.par_apply(plan, round, initiator, partner))
    }
}

/// Per-layer accumulators over the measured rounds of a run.
#[derive(Default)]
struct Layers {
    round_ms: Vec<f64>,
    engine_wall_ns: u64,
    engine_self_ns: u64,
    /// Instance wall time as `time_to_estimate_s` measures it, around
    /// whole rounds, for the traced repetitions.
    measured_wall_ns: u64,
    local_busy_ns: u64,
    local_span_ns: u64,
    apply_busy_ns: u64,
    apply_span_ns: u64,
    absorb_ns: u64,
    join_ns: u64,
    leave_ns: u64,
}

/// Exchange outcomes counted at the `par_apply` boundary.
#[derive(Default)]
struct Exchanges {
    started: u64,
    completed: u64,
    aborted: u64,
    lost: u64,
    retransmits: u64,
}

/// Runs one round and, on a timed engine, splits its wall time into the
/// hooks it called and the engine's own remainder. Parallel hooks cover
/// only the runs of calls each thread made, so the engine's work between
/// its batches of calls stays in its self time.
fn timed_round(engine: &mut Engine<Hooked>, layers: &mut Layers, ex: &mut Exchanges) {
    let start = now_ns();
    engine.run_round_parallel();
    let end = now_ns();
    let round = Span { start, end };
    let h = engine.protocol_mut();
    let mut local = h.local.harvest();
    let mut apply = h.apply.harvest();
    ex.started += apply.calls;
    ex.completed += h.completes.harvest().calls;
    ex.aborted += h.aborts.harvest().calls;
    ex.lost += h.lost.harvest().calls;
    ex.retransmits += h.retransmits.harvest().calls;
    if !h.timed {
        return;
    }
    layers.local_busy_ns += local.busy_ns;
    layers.local_span_ns += stats::covered_ns(round, &mut local.intervals);
    layers.apply_busy_ns += apply.busy_ns;
    layers.apply_span_ns += stats::covered_ns(round, &mut apply.intervals);
    let mut children = std::mem::take(&mut h.serial_spans);
    children.append(&mut local.intervals);
    children.append(&mut apply.intervals);
    layers.round_ms.push(round.len() as f64 / 1e6);
    layers.engine_wall_ns += round.len();
    layers.engine_self_ns += stats::self_ns(round, &mut children);
    children.clear();
    h.serial_spans = children;
}

fn fingerprint(engine: &Engine<Hooked>) -> u64 {
    let mut fp = Fingerprint::new();
    for (_, node) in engine.nodes().iter() {
        match node.estimate() {
            Some(est) => {
                fp.mix(est.instance.as_u64());
                for f in &est.fractions {
                    fp.mix(f.to_bits());
                }
                fp.mix(est.n_hat.map_or(0, f64::to_bits));
            }
            None => fp.mix(u64::MAX),
        }
    }
    fp.mix(engine.net().total_bytes());
    fp.mix(engine.net().total_msgs());
    fp.mix(engine.protocol().inner.completed_count());
    fp.finish()
}

fn current_truth(engine: &Engine<Hooked>) -> StepCdf {
    StepCdf::from_values(
        engine
            .nodes()
            .iter()
            .map(|(_, n)| match n.value() {
                AttrValue::Single(v) => *v,
                AttrValue::Multi(_) => unreachable!("cycle workloads are single-valued"),
            })
            .collect(),
    )
}

/// Live nodes that were present when `meta` started but do not yet hold
/// its estimate.
fn pending(engine: &Engine<Hooked>, meta: &InstanceMeta) -> usize {
    engine
        .nodes()
        .iter()
        .filter(|(_, n)| n.joined_round() <= meta.start_round)
        .filter(|(_, n)| n.estimate().is_none_or(|e| e.instance != meta.id))
        .count()
}

pub fn run(name: &'static str, p: &CycleParams, seed: u64, seconds: f64, timed: bool) -> Report {
    let threads = crate::threads();
    let mut run = Run::new(name, seconds);
    let mut layers = Layers::default();
    let mut ex_total = Exchanges::default();
    let (mut err_a, mut n_hat_err) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut heals, mut joins, mut leaves) = (0u64, 0u64, 0u64);
    let mut late = Vec::new();

    while run.wants_rep() {
        // Set-up: population, then the engine over it.
        let t0 = Instant::now();
        let s = setup(Attribute::Cpu, p.nodes, seed);
        let population_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut config = Adam2Config::new()
            .with_lambda(p.lambda)
            .with_rounds_per_instance(p.rounds_per_instance)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_refine(RefineKind::Bootstrap)
            .with_domain_hint(s.truth.min(), s.truth.max());
        if let Some((points, threshold)) = p.self_heal {
            config = config
                .with_verify_points(points)
                .with_self_heal(threshold, 1);
        }
        let pop = s.population.clone();
        let proto = Adam2Protocol::with_population(config, pop.values().to_vec(), move |rng| {
            pop.draw_fresh(rng)
        });
        let mut engine_config = EngineConfig::new(p.nodes, derive_seed(seed, 0xE7_61))
            .with_threads(threads)
            .with_loss_rate(p.loss_rate);
        if p.churn_rate > 0.0 {
            engine_config = engine_config.with_churn(ChurnModel::uniform(p.churn_rate));
        }
        if p.loss_rate > 0.0 {
            engine_config = engine_config.with_repair(ExchangeRepair::enabled());
        }
        let mut engine = Engine::new(engine_config, Hooked::new(proto, timed));
        let engine_s = t1.elapsed().as_secs_f64();
        run.setup_done(&[
            ("traces.population_s", population_s),
            ("sim.engine.new_s", engine_s),
        ]);
        if !run.wants_measure() {
            continue;
        }

        let cpu0 = process_cpu();
        let bytes0 = engine.net().total_bytes();
        let mut ex = Exchanges::default();
        let mut wall = 0.0;
        let mut node_rounds = 0u64;
        for _ in 0..p.instances {
            let meta: Arc<InstanceMeta> = engine
                .with_ctx(|h, ctx| {
                    let initiator = ctx.nodes.random_id(ctx.rng)?;
                    h.inner.start_instance(initiator, ctx)
                })
                .expect("population is non-empty");
            let mut instance_wall = 0.0;
            loop {
                let t = Instant::now();
                node_rounds += engine.nodes().len() as u64;
                timed_round(&mut engine, &mut layers, &mut ex);
                instance_wall += t.elapsed().as_secs_f64();
                let done = engine.round() > meta.end_round && pending(&engine, &meta) == 0;
                if done || engine.round() >= meta.end_round + 3 {
                    break;
                }
            }
            wall += instance_wall;
            layers.measured_wall_ns += (instance_wall * 1e9) as u64;
            run.sample("time_to_estimate_s", instance_wall);
            let missing = pending(&engine, &meta);
            if missing > 0 {
                late.push(format!(
                    "{missing} participants lack the estimate at round {}",
                    engine.round()
                ));
            }
        }
        let cpu = process_cpu().since(&cpu0).total();
        let bytes = engine.net().total_bytes() - bytes0;
        run.sample("exchanges_per_s", ratio(ex.completed as f64, wall));
        run.sample("cpu_us_per_exchange", ratio(cpu * 1e6, ex.completed as f64));
        run.sample(
            "exchange_success_frac",
            ratio(ex.completed as f64, ex.started as f64),
        );
        run.sample(
            "bytes_per_node_round",
            ratio(bytes as f64, node_rounds as f64),
        );
        ex_total.aborted += ex.aborted;
        ex_total.lost += ex.lost;
        ex_total.retransmits += ex.retransmits;

        // Outputs: every live node's latest estimate against the current
        // population.
        let live = engine.nodes().len();
        let score = score_nodes(
            engine.nodes().iter().map(|(_, n)| n),
            &current_truth(&engine),
            seed,
        );
        err_a.push(score.err_a);
        n_hat_err.push(score.n_hat_rel_err);
        run.sample("estimate_coverage", score.coverage());
        failed += score.without_estimate as u64;
        attempted += live as u64;
        run.fingerprint(fingerprint(&engine));
        let h = engine.protocol();
        heals += h.inner.healed_count();
        joins += h.joins.calls;
        leaves += h.leaves.calls;
        layers.absorb_ns += h.absorb.ns;
        layers.join_ns += h.joins.ns;
        layers.leave_ns += h.leaves.ns;
        run.rep_done();
    }

    let mut report = run.finish(attempted, failed);
    if p.churn_rate == 0.0 && p.loss_rate == 0.0 {
        report.check(
            "clean_run_leaves_no_node_without_estimate",
            failed == 0,
            format!("{failed} of {attempted} live nodes"),
        );
    }
    for detail in late {
        report.check("participants_hold_estimate", false, detail);
    }
    p.ceilings.check(&mut report, &err_a, &n_hat_err);
    report.layer("err_a", "ratio", stats::median(&err_a).unwrap_or(0.0));
    report.layer(
        "n_hat_rel_err",
        "ratio",
        stats::median(&n_hat_err).unwrap_or(0.0),
    );
    if !timed {
        return report;
    }
    let s = |ns: u64| ns as f64 / 1e9;
    report.check(
        "cycle_rounds_account_for_wall",
        layers.engine_wall_ns.abs_diff(layers.measured_wall_ns) <= layers.measured_wall_ns / 50,
        format!(
            "rounds {} vs time to estimate {} ns",
            layers.engine_wall_ns, layers.measured_wall_ns
        ),
    );
    let fits = |busy: u64, span: u64| busy <= span * threads as u64 + span / 1000;
    report.check(
        "cycle_hook_busy_fits_spans",
        fits(layers.local_busy_ns, layers.local_span_ns)
            && fits(layers.apply_busy_ns, layers.apply_span_ns),
        format!(
            "local {}/{} apply {}/{} busy/span ns on {threads} threads",
            layers.local_busy_ns, layers.local_span_ns, layers.apply_busy_ns, layers.apply_span_ns
        ),
    );
    let (p50, tail) = crate::report::p50_and_tail(&layers.round_ms);
    report.layer("sim.engine.round_ms_p50", "ms", p50);
    report.layer("sim.engine.round_ms_tail", "ms", tail.1);
    report.note("sim.engine.round_ms_tail_percentile", tail.0);
    report.note("sim.engine.rounds", layers.round_ms.len() as f64);
    report.layer("sim.engine.self_s", "s", s(layers.engine_self_ns));
    report.layer(
        "sim.engine.par_efficiency",
        "ratio",
        ratio(
            (layers.local_busy_ns + layers.apply_busy_ns) as f64,
            ((layers.local_span_ns + layers.apply_span_ns) * threads as u64) as f64,
        ),
    );
    report.layer("core.protocol.local_busy_s", "s", s(layers.local_busy_ns));
    report.layer("core.protocol.local_span_s", "s", s(layers.local_span_ns));
    report.layer("core.protocol.absorb_s", "s", s(layers.absorb_ns));
    report.layer("core.protocol.apply_busy_s", "s", s(layers.apply_busy_ns));
    report.layer("core.protocol.apply_span_s", "s", s(layers.apply_span_ns));
    report.layer(
        "core.protocol.join_s",
        "s",
        s(layers.join_ns + layers.leave_ns),
    );
    report.layer("core.protocol.joins", "count", joins as f64);
    report.layer("core.protocol.leaves", "count", leaves as f64);
    report.layer(
        "core.protocol.retransmits",
        "count",
        ex_total.retransmits as f64,
    );
    report.layer("core.protocol.aborts", "count", ex_total.aborted as f64);
    report.note("core.protocol.heal_votes", heals as f64);
    report.note("core.protocol.lost", ex_total.lost as f64);
    report
}
