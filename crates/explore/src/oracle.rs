//! Invariant oracles: run one candidate [`FaultScenario`] and judge it.
//!
//! A run is judged against four invariants, in priority order:
//!
//! 1. **Panic** — the engine or protocol panicked (caught, never fatal to
//!    the campaign).
//! 2. **Mass conservation** — the per-round [`MassDefect`] of the
//!    instance, audited exactly like `bench_faults` does, must stay
//!    within tolerance. Only checked when the scenario makes mass a real
//!    invariant: crash–recover destroys crashed replicas' mass by design,
//!    a self-heal restart resets the ledger mid-run, and a Byzantine
//!    node's own accounting is fiction — in those runs the damage has to
//!    show up in the error/convergence checks instead. Attribute drift
//!    is the one partial case: weight mass is value-independent and
//!    stays a hard invariant, but the fraction audit compares enrolled
//!    contributions against indicators recomputed from the *drifted*
//!    values, so drifted runs keep the weight audit only.
//! 3. **Non-convergence** — an honest peer finished the round budget
//!    without any estimate.
//! 4. **Err_a regression** — the honest peers' Err_a exceeds
//!    `baseline × REGRESSION_FACTOR + REGRESSION_FLOOR`, where the
//!    baseline is a fault-free run of the *same* configuration (computed
//!    once per [`Oracle`]).
//!
//! Two protocol configurations are exposed as [`ConfigKind`]:
//! `Vanilla` is the paper's plain protocol on a loss-free engine with no
//! defenses, so any injected fault axis can violate; `Hardened` layers
//! every defense the repo has (two-phase exchange repair, robust
//! bounded-influence merging, verification points + self-healing) and is
//! expected to clear the mutator's entire bounded scenario envelope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use adam2_bench::{
    adam2_engine_with, collect_peers, honest_initiator, mass_defect, run_instance_audited, setup,
    ExperimentSetup, AUDIT_FRACTION, AUDIT_WEIGHT,
};
use adam2_core::{uniform_points, Adam2Config, AsyncAdam2, InstanceId, InstanceMeta, RobustPolicy};
use adam2_sim::{
    ActiveAdversary, EventConfig, EventEngine, ExchangeRepair, FaultEvent, FaultScenario,
    LatencyModel, MassAuditor, MassViolation, RoundSnapshot, SimTelemetry,
};
use adam2_traces::Attribute;

use crate::coverage::behaviour_signature;

/// Gossip rounds per instance (matches `bench_faults`/`bench_byzantine`).
pub const ROUNDS: u64 = 35;
/// Extra rounds after the instance deadline so recovered nodes can
/// bootstrap estimates before the final evaluation.
pub const SETTLE_ROUNDS: u64 = 4;
/// Weight-mass drift above this is a violation (repaired runs hold
/// ~1e-15; unrepaired 20% burst leaks ~4.5e-2).
pub const WEIGHT_TOLERANCE: f64 = 1e-9;
/// Fraction-mass drift above this is a violation (looser than weight:
/// the defect is a sum of λ components, each carrying fp rounding).
pub const FRACTION_TOLERANCE: f64 = 1e-6;
/// Err_a must stay under `baseline * factor + floor`. The floor absorbs
/// population-truth drift from crash waves (replacements are fresh draws,
/// so the initial-population CDF is no longer exactly the truth).
pub const REGRESSION_FACTOR: f64 = 6.0;
/// See [`REGRESSION_FACTOR`].
pub const REGRESSION_FLOOR: f64 = 0.05;
/// The robust merge influence cap used by the hardened config (mirrors
/// `bench_byzantine`).
pub const INFLUENCE_CAP: f64 = 0.25;
/// Event-engine ticks per gossip round (mirrors `bench_byzantine`).
pub const PERIOD: u64 = 200;
/// Period boundaries sampled for the event-engine mass audit, counted
/// back from the instance deadline. The async network's one-sided
/// absorbs leave mass in flight at any instant — early in the run the
/// initiator's whole unit weight can be airborne — so only late
/// boundaries, after the defect has frozen, are meaningful.
pub const EVENT_AUDIT_BOUNDARIES: u64 = 3;
/// Event-engine weight-mass tolerance. Snapshot-based one-sided
/// absorption is only *approximately* conservative under concurrency
/// (the documented `AsyncAdam2` caveat): interleaved exchanges during
/// the early spreading phase bake in a permanent defect of ~6.2e-2 at
/// 10^4 nodes even fault-free, so the cycle engine's 1e-9 bar is
/// unreachable here. Real fault damage sits far above this envelope —
/// an unrepaired 30% loss burst freezes the defect at ~1.31.
pub const EVENT_WEIGHT_TOLERANCE: f64 = 0.15;
/// Per-node fraction-mass tolerance for the event engine (the fraction
/// defect is a sum over the population, so it scales with n). Measured
/// fault-free envelope ~7e-4 per node at 10^4 nodes; the 30% burst
/// leaves ~4.2e-3 per node.
pub const EVENT_FRACTION_TOLERANCE_PER_NODE: f64 = 2e-3;

/// Which protocol/engine configuration a run is judged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// Plain Adam2 on a loss-free engine: no repair, no robust merge, no
    /// self-healing. The paper's baseline; faults are expected to hurt.
    Vanilla,
    /// Every defense on: exchange repair, robust bounded-influence
    /// merging, verification points + self-healing.
    Hardened,
}

impl ConfigKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ConfigKind::Vanilla => "vanilla",
            ConfigKind::Hardened => "hardened",
        }
    }

    #[allow(clippy::should_implement_trait)] // fallible, not the Err-typed trait
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "vanilla" => Some(ConfigKind::Vanilla),
            "hardened" => Some(ConfigKind::Hardened),
            _ => None,
        }
    }
}

/// The oracle's judgment of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every invariant held.
    Clear,
    /// Aggregate mass rose above its baseline.
    MassInflation,
    /// Aggregate mass fell below its baseline.
    MassLeakage,
    /// Err_a exceeded the regression threshold.
    ErrRegression,
    /// An honest peer finished without an estimate.
    NonConvergence,
    /// The run panicked.
    Panic,
}

impl Verdict {
    pub fn is_violation(self) -> bool {
        self != Verdict::Clear
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Clear => "clear",
            Verdict::MassInflation => "mass_inflation",
            Verdict::MassLeakage => "mass_leakage",
            Verdict::ErrRegression => "err_regression",
            Verdict::NonConvergence => "non_convergence",
            Verdict::Panic => "panic",
        }
    }

    #[allow(clippy::should_implement_trait)] // fallible, not the Err-typed trait
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "clear" => Some(Verdict::Clear),
            "mass_inflation" => Some(Verdict::MassInflation),
            "mass_leakage" => Some(Verdict::MassLeakage),
            "err_regression" => Some(Verdict::ErrRegression),
            "non_convergence" => Some(Verdict::NonConvergence),
            "panic" => Some(Verdict::Panic),
            _ => None,
        }
    }
}

/// Everything the campaign needs from one judged run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub verdict: Verdict,
    /// Magnitude of the violation: signed mass drift, Err_a ratio over
    /// baseline, or missing-peer count. `0.0` when clear.
    pub detail: f64,
    /// Honest peers' Err_a over the whole CDF domain.
    pub err_a: f64,
    /// Bit-exact FNV-1a digest over every peer's final state; two runs
    /// with equal fingerprints took byte-identical trajectories.
    pub fingerprint: u64,
    /// Behaviour features for the coverage map (log2-bucketed telemetry
    /// counters, error buckets).
    pub signature: Vec<u64>,
    /// Self-heal epoch restarts observed.
    pub healed: u64,
    /// Honest peers that finished without an estimate.
    pub peers_without_estimate: usize,
}

/// Parameters shared by every run of one [`Oracle`].
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    pub kind: ConfigKind,
    pub nodes: usize,
    pub lambda: usize,
    pub seed: u64,
    pub sample_peers: usize,
}

impl OracleConfig {
    /// Campaign defaults: 400 nodes keeps one judged run in the low
    /// milliseconds so a bounded campaign can afford hundreds of them.
    pub fn new(kind: ConfigKind) -> Self {
        Self {
            kind,
            nodes: 400,
            lambda: 20,
            seed: 42,
            sample_peers: 100,
        }
    }

    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A reusable judge: one generated population + one fault-free baseline,
/// then any number of candidate scenarios scored against them.
pub struct Oracle {
    config: OracleConfig,
    setup: ExperimentSetup,
    baseline: RunOutcome,
}

impl Oracle {
    /// Builds the population and runs the fault-free baseline.
    pub fn new(config: OracleConfig) -> Self {
        let s = setup(Attribute::Ram, config.nodes, config.seed);
        let baseline = run_cycle(&config, &s, None, None);
        Self {
            config,
            setup: s,
            baseline,
        }
    }

    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// The fault-free baseline outcome (its verdict is `Clear` for any
    /// sane configuration; the campaign asserts this before exploring).
    pub fn baseline(&self) -> &RunOutcome {
        &self.baseline
    }

    /// Judges one scenario. Panics inside the run are caught and
    /// reported as [`Verdict::Panic`].
    pub fn run(&self, scenario: &FaultScenario) -> RunOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cycle(
                &self.config,
                &self.setup,
                Some(scenario),
                Some(self.baseline.err_a),
            )
        }));
        result.unwrap_or_else(|_| RunOutcome {
            verdict: Verdict::Panic,
            detail: 1.0,
            err_a: f64::NAN,
            fingerprint: 0,
            signature: Vec::new(),
            healed: 0,
            peers_without_estimate: 0,
        })
    }
}

/// The first adversary window's membership oracle, if the scenario has
/// one. The mutator never emits more than one adversary event; hand-
/// written corpus entries with several windows are judged against the
/// first (earlier honest-set changes are not modelled).
pub fn adversary_of(scenario: &FaultScenario) -> Option<ActiveAdversary> {
    scenario.events.iter().find_map(|event| match event {
        FaultEvent::Adversary { from_round, .. } => scenario.adversary_at(*from_round),
        _ => None,
    })
}

/// Which mass audits are real invariants of this run (see the module
/// docs). Weight mass is value-independent, so attribute drift leaves it
/// a hard invariant; the fraction audit compares enrolled indicator
/// contributions against indicators *recomputed from current values*, so
/// a drift window makes the comparison read stale-by-design estimates as
/// a defect — drifted runs keep the weight audit and drop the fraction
/// audit.
#[derive(Debug, Clone, Copy)]
struct MassEligibility {
    weight: bool,
    fraction: bool,
}

fn mass_eligibility_for(scenario: Option<&FaultScenario>, healed: u64) -> MassEligibility {
    let base = healed == 0
        && scenario.is_none_or(|sc| {
            !sc.events.iter().any(|e| {
                matches!(
                    e,
                    FaultEvent::CrashRecover { .. } | FaultEvent::Adversary { .. }
                )
            })
        });
    MassEligibility {
        weight: base,
        fraction: base && scenario.is_none_or(|sc| !sc.has_drift()),
    }
}

/// Judges the auditor + evaluation results shared by the cycle and event
/// paths. `baseline_err` of `None` skips the regression check (used for
/// the baseline run itself).
#[allow(clippy::too_many_arguments)]
fn judge(
    mass_eligible: MassEligibility,
    weight_drift: Option<f64>,
    weight_violation: Option<MassViolation>,
    fraction_drift: Option<f64>,
    fraction_violation: Option<MassViolation>,
    err_a: f64,
    peers_without_estimate: usize,
    baseline_err: Option<f64>,
) -> (Verdict, f64) {
    let audits = [
        (mass_eligible.weight, weight_violation, weight_drift),
        (mass_eligible.fraction, fraction_violation, fraction_drift),
    ];
    for (eligible, violation, drift) in audits {
        let verdict = match violation {
            Some(_) if !eligible => continue,
            Some(MassViolation::Inflation) => Verdict::MassInflation,
            Some(MassViolation::Leakage) => Verdict::MassLeakage,
            None => continue,
        };
        return (verdict, drift.unwrap_or(f64::NAN));
    }
    if peers_without_estimate > 0 {
        return (Verdict::NonConvergence, peers_without_estimate as f64);
    }
    if let Some(base) = baseline_err {
        if err_a > base * REGRESSION_FACTOR + REGRESSION_FLOOR {
            return (Verdict::ErrRegression, err_a / base);
        }
    }
    (Verdict::Clear, 0.0)
}

fn run_cycle(
    config: &OracleConfig,
    s: &ExperimentSetup,
    scenario: Option<&FaultScenario>,
    baseline_err: Option<f64>,
) -> RunOutcome {
    let hardened = config.kind == ConfigKind::Hardened;
    let mut proto_config = Adam2Config::new()
        .with_lambda(config.lambda)
        .with_rounds_per_instance(ROUNDS);
    if hardened {
        proto_config = proto_config
            .with_robust(
                RobustPolicy::new()
                    .with_trim_fraction(0.0)
                    .with_influence_cap(INFLUENCE_CAP),
            )
            .with_verify_points(10)
            .with_self_heal(1e-15, 1);
    }
    let mut engine = adam2_engine_with(s, proto_config, config.seed, |c| {
        if hardened {
            c.with_repair(ExchangeRepair::enabled())
        } else {
            c
        }
    });
    engine.attach_telemetry(SimTelemetry::new());
    let adversary = scenario.and_then(adversary_of);
    if let Some(sc) = scenario {
        engine
            .set_fault_scenario(sc.clone())
            .expect("oracle inputs are pre-validated scenarios");
    }
    let initiator = honest_initiator(engine.nodes(), adversary.as_ref());
    let meta = engine
        .with_ctx(|proto, ctx| proto.start_instance(initiator, ctx))
        .expect("instance start");
    // A self-heal restart needs its extended deadline to pass before it
    // finalises, so hardened runs get a second instance epoch.
    let total_rounds = if hardened {
        2 * ROUNDS + 1 + SETTLE_ROUNDS
    } else {
        ROUNDS + 1 + SETTLE_ROUNDS
    };
    let auditor = run_instance_audited(&mut engine, &meta, total_rounds);
    let healed = engine.protocol().healed_count();

    let peers = collect_peers(engine.nodes());
    let report = peers.score_honest(
        adversary.as_ref(),
        &s.truth,
        config.sample_peers,
        config.seed,
    );

    let snapshots: Vec<RoundSnapshot> = engine
        .telemetry_mut()
        .map(|t| t.telemetry().snapshots().to_vec())
        .unwrap_or_default();
    let signature = behaviour_signature(
        &snapshots,
        report.avg_cdf,
        healed,
        report.peers_without_estimate,
    );

    // Judge the *worst excursion*, not the final reading: once the
    // instance completes it leaves the accounting scope and the defect
    // reads 0 again, but the drift while it was live already corrupted
    // the estimates derived from it (`bench_faults` reports the same
    // max-excursion statistic).
    let mass_eligible = mass_eligibility_for(scenario, healed);
    let (verdict, detail) = judge(
        mass_eligible,
        auditor.worst_drift_of(AUDIT_WEIGHT),
        auditor.worst_violation_of(AUDIT_WEIGHT, WEIGHT_TOLERANCE),
        auditor.worst_drift_of(AUDIT_FRACTION),
        auditor.worst_violation_of(AUDIT_FRACTION, FRACTION_TOLERANCE),
        report.avg_cdf,
        report.peers_without_estimate,
        baseline_err,
    );
    RunOutcome {
        verdict,
        detail,
        err_a: report.avg_cdf,
        fingerprint: peers.fingerprint(),
        signature,
        healed,
        peers_without_estimate: report.peers_without_estimate,
    }
}

impl Oracle {
    /// Judges one scenario on the *event engine* (the oracle's
    /// cross-engine check, closing the PR 5 parity gap): same population,
    /// same invariants, judged from period-boundary mass samples because
    /// the async network's one-sided absorbs keep mass in flight at any
    /// instant — see [`EVENT_AUDIT_BOUNDARIES`].
    ///
    /// `Hardened` here means the robust bounded-influence merge (exchange
    /// repair and self-healing are cycle-engine defenses; the async
    /// protocol has neither). `baseline_err` of `None` skips the
    /// regression check — run a fault-free event baseline first and pass
    /// its `err_a`; the cycle baseline is not comparable because the
    /// engines converge at different rates.
    pub fn run_event(
        &self,
        scenario: Option<&FaultScenario>,
        threads: usize,
        baseline_err: Option<f64>,
    ) -> RunOutcome {
        let config = &self.config;
        let s = &self.setup;
        let hardened = config.kind == ConfigKind::Hardened;
        let mut proto = AsyncAdam2::with_population(PERIOD, s.population.values().to_vec(), {
            let pop = s.population.clone();
            move |rng| pop.draw_fresh(rng)
        });
        if hardened {
            proto = proto.with_robust(
                RobustPolicy::new()
                    .with_trim_fraction(0.0)
                    .with_influence_cap(INFLUENCE_CAP),
            );
        }
        let event_config = EventConfig::new(s.population.len(), config.seed)
            .with_gossip_period(PERIOD)
            .with_latency(LatencyModel::Uniform { min: 5, max: 40 })
            .with_threads(threads);
        let mut engine = EventEngine::new(event_config, proto);
        let adversary = scenario.and_then(adversary_of);
        if let Some(sc) = scenario {
            engine
                .set_fault_scenario(sc.clone())
                .expect("oracle inputs are pre-validated scenarios");
        }
        let thresholds = uniform_points(s.truth.min(), s.truth.max(), config.lambda);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: thresholds.into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: ROUNDS,
            multi: false,
        });
        let initiator = honest_initiator(engine.nodes(), adversary.as_ref());
        engine.with_ctx(|proto, ctx| proto.start_instance(initiator, meta.clone(), ctx));

        let mut auditor = MassAuditor::new();
        auditor.observe(AUDIT_WEIGHT, 0.0);
        auditor.observe(AUDIT_FRACTION, 0.0);
        for k in (ROUNDS - EVENT_AUDIT_BOUNDARIES)..ROUNDS {
            engine.run_until_parallel(k * PERIOD);
            let defect = mass_defect(engine.nodes(), &meta);
            auditor.observe(AUDIT_WEIGHT, defect.weight);
            auditor.observe(AUDIT_FRACTION, defect.fraction);
        }
        engine.run_until_parallel(PERIOD * (ROUNDS + 1 + SETTLE_ROUNDS));

        let peers = collect_peers(engine.nodes());
        let report = peers.score_honest(
            adversary.as_ref(),
            &s.truth,
            config.sample_peers,
            config.seed,
        );

        let mass_eligible = mass_eligibility_for(scenario, 0);
        let (verdict, detail) = judge(
            mass_eligible,
            auditor.worst_drift_of(AUDIT_WEIGHT),
            auditor.worst_violation_of(AUDIT_WEIGHT, EVENT_WEIGHT_TOLERANCE),
            auditor.worst_drift_of(AUDIT_FRACTION),
            auditor.worst_violation_of(
                AUDIT_FRACTION,
                EVENT_FRACTION_TOLERANCE_PER_NODE * config.nodes as f64,
            ),
            report.avg_cdf,
            report.peers_without_estimate,
            baseline_err,
        );
        RunOutcome {
            verdict,
            detail,
            err_a: report.avg_cdf,
            fingerprint: peers.fingerprint(),
            // The event engine's telemetry is tick-granular; the
            // behaviour signature is a cycle-path concept and stays
            // empty here (the campaign only explores on the cycle
            // engine).
            signature: Vec::new(),
            healed: 0,
            peers_without_estimate: report.peers_without_estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_sim::{AdversaryModel, PartitionKind};

    fn small(kind: ConfigKind) -> Oracle {
        Oracle::new(OracleConfig::new(kind).with_nodes(200))
    }

    #[test]
    fn baseline_is_clear() {
        let oracle = small(ConfigKind::Vanilla);
        assert_eq!(oracle.baseline().verdict, Verdict::Clear);
        assert!(
            oracle.baseline().err_a < 0.05,
            "err_a {}",
            oracle.baseline().err_a
        );
        assert_eq!(oracle.baseline().peers_without_estimate, 0);
    }

    #[test]
    fn vanilla_burst_loss_leaks_mass() {
        let oracle = small(ConfigKind::Vanilla);
        let scenario = FaultScenario::new(7).with_burst_loss(5, 15, 0.3);
        let outcome = oracle.run(&scenario);
        assert!(
            matches!(
                outcome.verdict,
                Verdict::MassLeakage | Verdict::MassInflation
            ),
            "expected a mass violation, got {:?} (detail {})",
            outcome.verdict,
            outcome.detail
        );
    }

    #[test]
    fn hardened_burst_loss_is_clear() {
        let oracle = small(ConfigKind::Hardened);
        let scenario = FaultScenario::new(7).with_burst_loss(5, 15, 0.3);
        let outcome = oracle.run(&scenario);
        assert_eq!(outcome.verdict, Verdict::Clear, "detail {}", outcome.detail);
    }

    #[test]
    fn vanilla_partition_alone_is_clear() {
        // A healed partition loses no messages: mass is conserved and the
        // instance still has 15+ rounds to converge.
        let oracle = small(ConfigKind::Vanilla);
        let scenario = FaultScenario::new(7).with_partition(5, 12, PartitionKind::Bisect);
        let outcome = oracle.run(&scenario);
        assert_eq!(outcome.verdict, Verdict::Clear, "detail {}", outcome.detail);
    }

    #[test]
    fn vanilla_poisoning_regresses_error() {
        let oracle = small(ConfigKind::Vanilla);
        let scenario = FaultScenario::new(7).with_adversary(
            0,
            ROUNDS + 3,
            0.1,
            AdversaryModel::ValuePoisoning { magnitude: 5.0 },
        );
        let outcome = oracle.run(&scenario);
        assert_eq!(
            outcome.verdict,
            Verdict::ErrRegression,
            "err_a {} vs baseline {}",
            outcome.err_a,
            oracle.baseline().err_a
        );
    }

    #[test]
    fn hardened_poisoning_is_clear() {
        let oracle = small(ConfigKind::Hardened);
        let scenario = FaultScenario::new(7).with_adversary(
            0,
            ROUNDS + 3,
            0.1,
            AdversaryModel::ValuePoisoning { magnitude: 5.0 },
        );
        let outcome = oracle.run(&scenario);
        assert_eq!(outcome.verdict, Verdict::Clear, "err_a {}", outcome.err_a);
    }

    #[test]
    fn drift_inside_envelope_is_clear_on_both_configs() {
        use adam2_sim::DriftModel;
        // Top-of-envelope drifts (see `mutate`'s RAMP/SHIFT ranges): the
        // fraction audit is waived, the weight audit holds, and Err_a
        // against the enrolment-time truth stays inside the band.
        for kind in [ConfigKind::Vanilla, ConfigKind::Hardened] {
            let oracle = small(kind);
            for scenario in [
                FaultScenario::new(7).with_drift(5, 15, DriftModel::LinearRamp { per_round: 20.0 }),
                FaultScenario::new(7).with_drift(10, 11, DriftModel::Step { shift: 500.0 }),
                FaultScenario::new(7).with_drift(0, 30, DriftModel::Replacement { rate: 0.1 }),
            ] {
                let outcome = oracle.run(&scenario);
                assert_eq!(
                    outcome.verdict,
                    Verdict::Clear,
                    "{kind:?} {scenario:?}: detail {} err_a {} (baseline {})",
                    outcome.detail,
                    outcome.err_a,
                    oracle.baseline().err_a
                );
            }
        }
    }

    #[test]
    fn drifted_burst_still_caught_by_weight_audit() {
        use adam2_sim::DriftModel;
        // Drift waives only the fraction audit: an unrepaired loss burst
        // riding the same scenario still leaks value-independent weight
        // mass, and the oracle must keep catching it.
        let oracle = small(ConfigKind::Vanilla);
        let scenario = FaultScenario::new(7)
            .with_burst_loss(5, 15, 0.3)
            .with_drift(5, 15, DriftModel::LinearRamp { per_round: 10.0 });
        let outcome = oracle.run(&scenario);
        assert!(
            matches!(
                outcome.verdict,
                Verdict::MassLeakage | Verdict::MassInflation
            ),
            "expected a weight-mass violation, got {:?} (detail {})",
            outcome.verdict,
            outcome.detail
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let oracle = small(ConfigKind::Vanilla);
        let scenario = FaultScenario::new(7).with_burst_loss(5, 15, 0.3);
        let a = oracle.run(&scenario);
        let b = oracle.run(&scenario);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.detail.to_bits(), b.detail.to_bits());
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn verdict_strings_round_trip() {
        for v in [
            Verdict::Clear,
            Verdict::MassInflation,
            Verdict::MassLeakage,
            Verdict::ErrRegression,
            Verdict::NonConvergence,
            Verdict::Panic,
        ] {
            assert_eq!(Verdict::from_str(v.as_str()), Some(v));
        }
        assert_eq!(Verdict::from_str("bogus"), None);
        for k in [ConfigKind::Vanilla, ConfigKind::Hardened] {
            assert_eq!(ConfigKind::from_str(k.as_str()), Some(k));
        }
    }
}
