//! Scenario-driven fault injection.
//!
//! A [`FaultScenario`] is a declarative list of [`FaultEvent`]s — correlated
//! burst loss, overlay partitions, crash–recover waves, extra delivery delay
//! and message duplication — each active over a round window. Scenarios are
//! attached to an engine ([`crate::Engine::set_fault_scenario`] for the
//! cycle-driven engine, [`crate::EventEngine::set_fault_scenario`] for the
//! async one) and replayed deterministically: every random draw the injector
//! makes comes from counter-based streams keyed by the *scenario* seed and
//! the round (never from the engine RNG), so the same scenario produces the
//! same faults under the sequential and parallel round paths at any thread
//! count.
//!
//! The engine records what it injected each round in a [`FaultTrace`] of
//! [`RoundFaults`] records, which tests compare across execution paths and
//! benches report alongside protocol error.

use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::RngExt as _;

use crate::engine::SimConfigError;
use crate::node::{NodeId, NodeSlab};
use crate::rng::{derive_seed, seeded_rng};
use crate::stats::NetStats;
use crate::telemetry::SimTelemetry;

/// Fault-stream tags for [`derive_seed`], disjoint from the engine's
/// parallel-phase counters (0, 1) by a wide margin.
const PHASE_PARTITION: u64 = 16;
const PHASE_CRASH: u64 = 17;
const PHASE_RECOVER: u64 = 18;
const PHASE_ADVERSARY: u64 = 19;
const PHASE_ADV_DRAW: u64 = 20;
const PHASE_DRIFT: u64 = 21;

/// Shape of an injected network partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Split the network into two halves.
    Bisect,
    /// Split the network into `k ≥ 2` islands.
    Islands(u32),
}

impl PartitionKind {
    /// Number of partition groups this cut produces.
    pub fn groups(self) -> u32 {
        match self {
            PartitionKind::Bisect => 2,
            PartitionKind::Islands(k) => k,
        }
    }
}

/// Behaviour of a Byzantine node while an adversary window is active.
///
/// All models corrupt the node's *contribution* to gossip exchanges; honest
/// nodes are untouched. Which nodes are Byzantine is a pure function of the
/// scenario seed, the window start and the node slot (see
/// [`ActiveAdversary::is_byzantine`]), so membership replays bit-identically
/// on every execution path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryModel {
    /// The node reports poisoned fraction vectors: every component is
    /// replaced by a draw in `[0, magnitude)`. The lie is *consistent* —
    /// the same node tells the same lie to every partner in every round of
    /// the window.
    ValuePoisoning {
        /// Upper bound of the poisoned component values (honest fractions
        /// live in `[0, 1]`, so `magnitude > 1` drags estimates upward).
        magnitude: f64,
    },
    /// The node claims an inflated aggregation weight `factor` in every
    /// exchange (honest weights sum to 1 network-wide, so any single claim
    /// above 1 injects mass and drags `n_hat` down for everyone it meets).
    WeightInflation {
        /// The absolute weight the node claims (honest nodes claim ≤ 1).
        factor: f64,
    },
    /// Value poisoning plus *targeted partner selection*: instead of
    /// gossiping with a uniform random neighbour, every Byzantine node
    /// aims all of its exchanges at a single victim (the lowest live
    /// slot), concentrating the poison.
    TargetedPartner {
        /// Upper bound of the poisoned component values.
        magnitude: f64,
    },
    /// Equivocation: the node poisons its fractions like `ValuePoisoning`
    /// but tells a *different* lie to every partner in every round (the
    /// corruption stream is keyed by round and partner slot).
    Equivocation {
        /// Upper bound of the poisoned component values.
        magnitude: f64,
    },
}

impl AdversaryModel {
    /// The poisoning magnitude, if this model poisons values.
    pub fn magnitude(self) -> Option<f64> {
        match self {
            AdversaryModel::ValuePoisoning { magnitude }
            | AdversaryModel::TargetedPartner { magnitude }
            | AdversaryModel::Equivocation { magnitude } => Some(magnitude),
            AdversaryModel::WeightInflation { .. } => None,
        }
    }

    /// Whether Byzantine nodes override their partner selection.
    pub fn targets_partner(self) -> bool {
        matches!(self, AdversaryModel::TargetedPartner { .. })
    }

    fn validate(self) -> Result<(), SimConfigError> {
        let bad = |name: &str, v: f64| {
            Err(SimConfigError::new(format!(
                "adversary {name} must be finite and > 0, got {v}"
            )))
        };
        match self {
            AdversaryModel::ValuePoisoning { magnitude }
            | AdversaryModel::TargetedPartner { magnitude }
            | AdversaryModel::Equivocation { magnitude } => {
                if !magnitude.is_finite() || magnitude <= 0.0 {
                    return bad("magnitude", magnitude);
                }
            }
            AdversaryModel::WeightInflation { factor } => {
                if !factor.is_finite() || factor <= 0.0 {
                    return bad("inflation factor", factor);
                }
            }
        }
        Ok(())
    }
}

/// How node attribute values drift while a [`FaultEvent::Drift`] window is
/// active.
///
/// Drift rewrites the *attribute* of live nodes between rounds — the input
/// the protocol is estimating — not the protocol state itself. Estimates in
/// flight keep the indicator contributions their nodes enrolled with, so
/// they go stale exactly the way a real deployment's would; that staleness
/// is what the streaming subsystem (`adam2-stream`) exists to track.
/// Magnitudes are in absolute attribute units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftModel {
    /// Every live node's value shifts by `per_round` each round of the
    /// window (a population-wide linear ramp).
    LinearRamp {
        /// Per-round additive shift (may be negative).
        per_round: f64,
    },
    /// Every live node's value shifts by `shift` exactly once, at the
    /// window's first round (an abrupt step change — the Spectra restart
    /// trigger's target case).
    Step {
        /// One-shot additive shift (may be negative).
        shift: f64,
    },
    /// Each round, every live node's value shifts by an independent
    /// uniform draw in `[-sigma, sigma]` from the scenario-seeded drift
    /// stream (per-node jitter; the population mean stays put).
    Jitter {
        /// Half-width of the uniform jitter, `≥ 0`.
        sigma: f64,
    },
    /// Each round, each live node redraws its value from the protocol's
    /// fresh-value source with probability `rate` (population replacement:
    /// the distribution morphs toward the source's).
    Replacement {
        /// Per-node per-round replacement probability in `[0, 1]`.
        rate: f64,
    },
}

impl DriftModel {
    fn validate(self) -> Result<(), SimConfigError> {
        match self {
            DriftModel::LinearRamp { per_round } => {
                if !per_round.is_finite() {
                    return Err(SimConfigError::new(format!(
                        "drift per_round must be finite, got {per_round}"
                    )));
                }
            }
            DriftModel::Step { shift } => {
                if !shift.is_finite() {
                    return Err(SimConfigError::new(format!(
                        "drift shift must be finite, got {shift}"
                    )));
                }
            }
            DriftModel::Jitter { sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(SimConfigError::new(format!(
                        "drift sigma must be finite and ≥ 0, got {sigma}"
                    )));
                }
            }
            DriftModel::Replacement { rate } => {
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(SimConfigError::new(format!(
                        "drift rate must be finite and in [0, 1], got {rate}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One attribute-drift operation for a single node, resolved by the engine
/// from the active [`DriftModel`]s and handed to the protocol's
/// `drift_node` hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftOp {
    /// Add `delta` to the node's attribute value(s).
    Shift(f64),
    /// Redraw the node's attribute from the protocol's fresh-value source
    /// (using the scenario-seeded drift RNG, never the engine RNG).
    Replace,
}

/// One declarative fault, active over a round window.
///
/// Round windows are half-open: `[from_round, to_round)`. A `CrashRecover`
/// fires once at `at_round` and the crashed nodes rejoin at `recover_round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Correlated burst loss: while active, the engine's per-message loss
    /// probability is overridden with `loss_rate` (the maximum over all
    /// active bursts wins).
    BurstLoss {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive).
        to_round: u64,
        /// Per-message loss probability in `[0, 1]`.
        loss_rate: f64,
    },
    /// Overlay-aware partition: while active, gossip partners are only
    /// drawn within a node's partition group. Group assignment is a pure
    /// function of the scenario seed, the window start and the node slot,
    /// so it is identical across execution paths and rounds.
    Partition {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive); the partition heals here.
        to_round: u64,
        /// Shape of the cut.
        kind: PartitionKind,
    },
    /// Crash a fraction of live nodes at `at_round` (state wiped, removed
    /// from the overlay) and let the same number of fresh nodes rejoin via
    /// peer sampling at `recover_round`.
    CrashRecover {
        /// Round at which the nodes crash.
        at_round: u64,
        /// Round at which replacements rejoin (`> at_round`).
        recover_round: u64,
        /// Fraction of the live population to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Extra delivery delay for the [`crate::EventEngine`]: while active,
    /// every delivered message takes `extra_ticks` additional ticks. The
    /// cycle-driven engine ignores it (its exchanges are intra-round).
    Delay {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive).
        to_round: u64,
        /// Additional delivery latency in ticks.
        extra_ticks: u64,
    },
    /// Message duplication for the [`crate::EventEngine`]: while active,
    /// each sent message is delivered twice with probability `rate`. The
    /// cycle-driven engine ignores it (exchanges are idempotent per round).
    Duplicate {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive).
        to_round: u64,
        /// Duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Byzantine adversary: while active, a deterministic `fraction` of
    /// live nodes behave according to `model` in every gossip exchange.
    /// When windows overlap, the latest-starting one wins (like
    /// `Partition`).
    Adversary {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive).
        to_round: u64,
        /// Fraction of nodes that are Byzantine, in `[0, 1]`.
        fraction: f64,
        /// What the Byzantine nodes do.
        model: AdversaryModel,
    },
    /// Attribute drift: while active, live nodes' attribute values are
    /// rewritten between rounds according to `model` (a [`DriftModel::Step`]
    /// fires once, at `from_round`). All randomness comes from the
    /// scenario-seeded drift stream consumed over live nodes in slot
    /// order, so replay is bit-identical on both engines at any thread
    /// count.
    Drift {
        /// First affected round (inclusive).
        from_round: u64,
        /// First unaffected round (exclusive).
        to_round: u64,
        /// How the attribute values move.
        model: DriftModel,
    },
}

/// A declarative, deterministically replayable fault schedule.
///
/// Build with the `with_*` methods, then attach to an engine. The scenario
/// `seed` drives all fault randomness (crash victim selection, partition
/// group assignment); it is independent of the engine seed so the same
/// scenario can be replayed against different populations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Seed for all fault randomness.
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultScenario {
    /// Creates an empty scenario.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds a correlated burst-loss window `[from, to)`.
    pub fn with_burst_loss(mut self, from: u64, to: u64, loss_rate: f64) -> Self {
        self.events.push(FaultEvent::BurstLoss {
            from_round: from,
            to_round: to,
            loss_rate,
        });
        self
    }

    /// Adds a partition window `[from, to)`.
    pub fn with_partition(mut self, from: u64, to: u64, kind: PartitionKind) -> Self {
        self.events.push(FaultEvent::Partition {
            from_round: from,
            to_round: to,
            kind,
        });
        self
    }

    /// Adds a crash–recover wave: `fraction` of live nodes crash at `at`
    /// and replacements rejoin at `recover`.
    pub fn with_crash_recover(mut self, at: u64, recover: u64, fraction: f64) -> Self {
        self.events.push(FaultEvent::CrashRecover {
            at_round: at,
            recover_round: recover,
            fraction,
        });
        self
    }

    /// Adds an extra-delay window `[from, to)` (async engine only).
    pub fn with_delay(mut self, from: u64, to: u64, extra_ticks: u64) -> Self {
        self.events.push(FaultEvent::Delay {
            from_round: from,
            to_round: to,
            extra_ticks,
        });
        self
    }

    /// Adds a duplication window `[from, to)` (async engine only).
    pub fn with_duplication(mut self, from: u64, to: u64, rate: f64) -> Self {
        self.events.push(FaultEvent::Duplicate {
            from_round: from,
            to_round: to,
            rate,
        });
        self
    }

    /// Adds a Byzantine adversary window `[from, to)`: `fraction` of the
    /// nodes follow `model` in every exchange while the window is active.
    pub fn with_adversary(
        mut self,
        from: u64,
        to: u64,
        fraction: f64,
        model: AdversaryModel,
    ) -> Self {
        self.events.push(FaultEvent::Adversary {
            from_round: from,
            to_round: to,
            fraction,
            model,
        });
        self
    }

    /// Adds an attribute-drift window `[from, to)`: live nodes' values
    /// move per `model` each round the window is active (a
    /// [`DriftModel::Step`] fires once, at `from`).
    pub fn with_drift(mut self, from: u64, to: u64, model: DriftModel) -> Self {
        self.events.push(FaultEvent::Drift {
            from_round: from,
            to_round: to,
            model,
        });
        self
    }

    /// Validates every event: probabilities must be finite and in `[0, 1]`,
    /// windows non-inverted, recovery strictly after the crash, island cuts
    /// need at least two groups.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        fn probability(name: &str, p: f64) -> Result<(), SimConfigError> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(SimConfigError::new(format!(
                    "{name} must be finite and in [0, 1], got {p}"
                )));
            }
            Ok(())
        }
        fn window(from: u64, to: u64) -> Result<(), SimConfigError> {
            if from > to {
                return Err(SimConfigError::new(format!(
                    "fault window [{from}, {to}) is inverted"
                )));
            }
            Ok(())
        }
        for event in &self.events {
            match *event {
                FaultEvent::BurstLoss {
                    from_round,
                    to_round,
                    loss_rate,
                } => {
                    window(from_round, to_round)?;
                    probability("burst loss_rate", loss_rate)?;
                }
                FaultEvent::Partition {
                    from_round,
                    to_round,
                    kind,
                } => {
                    window(from_round, to_round)?;
                    if kind.groups() < 2 {
                        return Err(SimConfigError::new(
                            "partition needs at least 2 groups".to_string(),
                        ));
                    }
                }
                FaultEvent::CrashRecover {
                    at_round,
                    recover_round,
                    fraction,
                } => {
                    if recover_round <= at_round {
                        return Err(SimConfigError::new(format!(
                            "recover_round {recover_round} must be after at_round {at_round}"
                        )));
                    }
                    probability("crash fraction", fraction)?;
                }
                FaultEvent::Delay {
                    from_round,
                    to_round,
                    ..
                } => window(from_round, to_round)?,
                FaultEvent::Duplicate {
                    from_round,
                    to_round,
                    rate,
                } => {
                    window(from_round, to_round)?;
                    probability("duplication rate", rate)?;
                }
                FaultEvent::Adversary {
                    from_round,
                    to_round,
                    fraction,
                    model,
                } => {
                    window(from_round, to_round)?;
                    probability("byzantine fraction", fraction)?;
                    model.validate()?;
                }
                FaultEvent::Drift {
                    from_round,
                    to_round,
                    model,
                } => {
                    window(from_round, to_round)?;
                    model.validate()?;
                }
            }
        }
        Ok(())
    }

    /// The drift models active at `round`, in event order. A
    /// [`DriftModel::Step`] is only active at its window's first round
    /// (it fires once); the other models apply every round of their
    /// window.
    pub fn drifts_at(&self, round: u64) -> Vec<DriftModel> {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::Drift {
                    from_round,
                    to_round,
                    model,
                } if (from_round..to_round).contains(&round) => match model {
                    DriftModel::Step { .. } if round != from_round => None,
                    _ => Some(model),
                },
                _ => None,
            })
            .collect()
    }

    /// Whether the scenario contains any drift window.
    pub fn has_drift(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Drift { .. }))
    }

    /// The loss-rate override active at `round`, if any (maximum over all
    /// active bursts).
    pub fn loss_rate_at(&self, round: u64) -> Option<f64> {
        let mut max: Option<f64> = None;
        for event in &self.events {
            if let FaultEvent::BurstLoss {
                from_round,
                to_round,
                loss_rate,
            } = *event
            {
                if (from_round..to_round).contains(&round) {
                    max = Some(max.map_or(loss_rate, |m: f64| m.max(loss_rate)));
                }
            }
        }
        max
    }

    /// Extra delivery delay (ticks) active at `round` (sum over windows).
    pub fn extra_delay_at(&self, round: u64) -> u64 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::Delay {
                    from_round,
                    to_round,
                    extra_ticks,
                } if (from_round..to_round).contains(&round) => Some(extra_ticks),
                _ => None,
            })
            .sum()
    }

    /// Duplication probability active at `round` (maximum over windows).
    pub fn duplication_rate_at(&self, round: u64) -> f64 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::Duplicate {
                    from_round,
                    to_round,
                    rate,
                } if (from_round..to_round).contains(&round) => Some(rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// The partition active at `round`, as `(window_start, kind)`. When
    /// windows overlap, the latest-starting one wins.
    pub(crate) fn active_partition(&self, round: u64) -> Option<(u64, PartitionKind)> {
        let mut active: Option<(u64, PartitionKind)> = None;
        for event in &self.events {
            if let FaultEvent::Partition {
                from_round,
                to_round,
                kind,
            } = *event
            {
                if (from_round..to_round).contains(&round)
                    && active.is_none_or(|(start, _)| from_round >= start)
                {
                    active = Some((from_round, kind));
                }
            }
        }
        active
    }

    /// The adversary window active at `round`, resolved into an
    /// [`ActiveAdversary`] handle. When windows overlap, the
    /// latest-starting one wins (like `active_partition`).
    pub fn adversary_at(&self, round: u64) -> Option<ActiveAdversary> {
        let mut active: Option<(u64, f64, AdversaryModel)> = None;
        for event in &self.events {
            if let FaultEvent::Adversary {
                from_round,
                to_round,
                fraction,
                model,
            } = *event
            {
                if (from_round..to_round).contains(&round)
                    && active.is_none_or(|(start, _, _)| from_round >= start)
                {
                    active = Some((from_round, fraction, model));
                }
            }
        }
        active.map(|(window_start, fraction, model)| ActiveAdversary {
            seed: self.seed,
            window_start,
            fraction,
            model,
        })
    }

    /// Crash waves firing exactly at `round`, as `(recover_round, fraction)`.
    pub(crate) fn crashes_at(&self, round: u64) -> Vec<(u64, f64)> {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::CrashRecover {
                    at_round,
                    recover_round,
                    fraction,
                } if at_round == round => Some((recover_round, fraction)),
                _ => None,
            })
            .collect()
    }

    /// Whether any event references rounds at or after `round` (used to
    /// know when a scenario is fully played out).
    pub fn last_round(&self) -> u64 {
        self.events
            .iter()
            .map(|event| match *event {
                FaultEvent::BurstLoss { to_round, .. }
                | FaultEvent::Partition { to_round, .. }
                | FaultEvent::Delay { to_round, .. }
                | FaultEvent::Duplicate { to_round, .. }
                | FaultEvent::Adversary { to_round, .. }
                | FaultEvent::Drift { to_round, .. } => to_round,
                FaultEvent::CrashRecover { recover_round, .. } => recover_round,
            })
            .max()
            .unwrap_or(0)
    }

    /// Deterministic partition group of `slot` for the partition window
    /// starting at `window_start`: a pure function of the scenario seed, so
    /// identical across execution paths, rounds, and thread counts.
    pub(crate) fn partition_group(&self, window_start: u64, slot: usize, k: u32) -> u32 {
        let h = derive_seed(
            derive_seed(derive_seed(self.seed, PHASE_PARTITION), window_start),
            slot as u64,
        );
        (h % u64::from(k.max(1))) as u32
    }
}

/// A resolved adversary window: which model is active and how Byzantine
/// membership and corruption randomness are derived.
///
/// Everything here is a pure function of `(scenario seed, window start,
/// counters)` — no engine RNG is ever consumed — so the same scenario
/// produces the same attack on the cycle engine, `run_round_parallel`, and
/// the event engine's batch path, at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveAdversary {
    seed: u64,
    window_start: u64,
    fraction: f64,
    /// The behaviour model Byzantine nodes follow.
    pub model: AdversaryModel,
}

impl ActiveAdversary {
    /// Whether the node at `slot` is Byzantine in this window. Membership
    /// is fixed for the whole window: a hash of `(seed, window_start,
    /// slot)` is compared against the configured fraction.
    pub fn is_byzantine(&self, slot: usize) -> bool {
        let h = derive_seed(
            derive_seed(derive_seed(self.seed, PHASE_ADVERSARY), self.window_start),
            slot as u64,
        );
        // Top 53 bits as a uniform draw in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.fraction
    }

    /// Corruption-stream seed for a Byzantine node's contribution to one
    /// exchange. `ValuePoisoning`, `TargetedPartner` and `WeightInflation`
    /// lies are consistent (keyed by slot only); `Equivocation` lies vary
    /// per round and partner.
    pub fn corruption_seed(&self, round: u64, slot: usize, partner_slot: usize) -> u64 {
        let base = derive_seed(
            derive_seed(derive_seed(self.seed, PHASE_ADV_DRAW), self.window_start),
            slot as u64,
        );
        match self.model {
            AdversaryModel::ValuePoisoning { .. }
            | AdversaryModel::TargetedPartner { .. }
            | AdversaryModel::WeightInflation { .. } => base,
            AdversaryModel::Equivocation { .. } => {
                derive_seed(derive_seed(base, round), partner_slot as u64)
            }
        }
    }

    /// Resolves one planned exchange into an attack directive, or `None`
    /// when both endpoints are honest.
    pub fn plan(
        &self,
        round: u64,
        initiator_slot: usize,
        partner_slot: usize,
    ) -> Option<PlannedAttack> {
        let initiator_seed = self
            .is_byzantine(initiator_slot)
            .then(|| self.corruption_seed(round, initiator_slot, partner_slot));
        let partner_seed = self
            .is_byzantine(partner_slot)
            .then(|| self.corruption_seed(round, partner_slot, initiator_slot));
        if initiator_seed.is_none() && partner_seed.is_none() {
            return None;
        }
        Some(PlannedAttack {
            model: self.model,
            initiator_seed,
            partner_seed,
        })
    }

    /// Number of Byzantine slots among `slots` (for trace records).
    pub fn count_byzantine<I: IntoIterator<Item = usize>>(&self, slots: I) -> u32 {
        slots.into_iter().filter(|&s| self.is_byzantine(s)).count() as u32
    }
}

/// Attack directive attached to one planned exchange: which endpoints are
/// Byzantine (a `Some` corruption seed) and what model they follow. The
/// protocol layer applies the corruption just before the merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedAttack {
    /// The behaviour model in force.
    pub model: AdversaryModel,
    /// Corruption seed for the initiator, when the initiator is Byzantine.
    pub initiator_seed: Option<u64>,
    /// Corruption seed for the partner, when the partner is Byzantine.
    pub partner_seed: Option<u64>,
}

/// What the fault injector did in one round (for replay comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFaults {
    /// The round the faults were injected into.
    pub round: u64,
    /// Effective per-message loss rate this round.
    pub loss_rate: f64,
    /// Whether a partition was active.
    pub partition_active: bool,
    /// Checksum over the partition group assignment (0 when unpartitioned).
    pub partition_checksum: u64,
    /// Slots crashed this round, in removal order.
    pub crashed: Vec<u32>,
    /// Number of nodes that recovered (rejoined) this round.
    pub recovered: u32,
    /// Number of live Byzantine nodes this round (0 when no adversary).
    pub byzantine: u32,
    /// Number of nodes whose attribute value drifted this round (0 when
    /// no drift window is active).
    pub drifted: u32,
}

/// Chronological record of injected faults, one entry per round with any
/// fault activity. Two engines replaying the same scenario must produce
/// equal traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTrace {
    /// Per-round records (only rounds with fault activity).
    pub records: Vec<RoundFaults>,
}

impl FaultTrace {
    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no fault activity was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total nodes crashed over the run.
    pub fn total_crashed(&self) -> u64 {
        self.records.iter().map(|r| r.crashed.len() as u64).sum()
    }

    /// Total nodes recovered over the run.
    pub fn total_recovered(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.recovered)).sum()
    }
}

/// What an engine lends the shared fault step ([`FaultRuntime::apply_round`]):
/// its node slab, accounting and telemetry, plus the structural effects
/// that differ between the cycle and event simulators. The defaults are
/// no-ops, so an engine overrides only the effects it has.
pub(crate) trait FaultHost {
    /// Per-node protocol state.
    type Node;

    /// The live nodes.
    fn nodes(&mut self) -> &mut NodeSlab<Self::Node>;

    /// Network accounting (recovered slots start from a clean ledger).
    fn net(&mut self) -> &mut NetStats;

    /// The attached telemetry store, if any.
    fn telemetry(&mut self) -> Option<&mut SimTelemetry>;

    /// Builds a fresh node state from `rng` (the protocol's `make_node`).
    fn make_node(&mut self, rng: &mut StdRng) -> Self::Node;

    /// Applies one drift operation to the live node `id`.
    fn drift_node(&mut self, id: NodeId, op: DriftOp, rng: &mut StdRng);

    /// Installs the round's effective loss rate.
    fn set_loss_rate(&mut self, _loss_rate: f64) {}

    /// Installs a partition's per-slot group assignment, or heals the cut
    /// (`None`).
    fn set_partition(&mut self, _groups: Option<Vec<u32>>) {}

    /// Structural effects of a crash, after `id` left the slab.
    fn on_crash(&mut self, _id: NodeId, _state: Self::Node) {}

    /// The engine's own draws for a recovered node just inserted at
    /// `round`, taken from the recover stream `rng`.
    fn on_recover(&mut self, _id: NodeId, _round: u64, _rng: &mut StdRng) {}

    /// Called once per recovered node, in insertion order, after the
    /// whole wave is in place.
    fn on_rejoin(&mut self, _id: NodeId) {}
}

/// Engine-side runtime state for an attached scenario.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    /// The scenario being replayed.
    pub(crate) scenario: FaultScenario,
    /// Window start of the currently applied partition, if any.
    partition_applied: Option<u64>,
    /// Crashed-node batches waiting to rejoin, as `(recover_round, count)`.
    pending_recoveries: Vec<(u64, u32)>,
    /// Record of everything injected so far.
    pub(crate) trace: FaultTrace,
}

impl FaultRuntime {
    pub(crate) fn new(scenario: FaultScenario) -> Self {
        Self {
            scenario,
            partition_applied: None,
            pending_recoveries: Vec::new(),
            trace: FaultTrace::default(),
        }
    }

    /// Deterministic RNG for the fault stream `phase` at `round`.
    fn stream_rng(&self, phase: u64, round: u64) -> StdRng {
        seeded_rng(derive_seed(derive_seed(self.scenario.seed, phase), round))
    }

    /// Applies the scenario's faults for `round` to `host`, in a fixed
    /// order: loss override, partition, crash waves, recoveries, drift,
    /// adversary membership; then appends the round's [`RoundFaults`]
    /// record when anything was active. Every random draw comes from a
    /// scenario-seeded stream (never an engine RNG), so both engines, on
    /// every driver and at any thread count, inject the same faults.
    ///
    /// Returns the adversary window covering `round`, if any.
    pub(crate) fn apply_round<H: FaultHost>(
        &mut self,
        round: u64,
        base_loss_rate: f64,
        host: &mut H,
    ) -> Option<ActiveAdversary> {
        // 1. Burst loss: override or restore the effective loss rate.
        let loss_override = self.scenario.loss_rate_at(round);
        let loss_rate = loss_override.unwrap_or(base_loss_rate);
        host.set_loss_rate(loss_rate);
        if loss_override.is_some() {
            if let Some(t) = host.telemetry() {
                t.record_fault_loss(round, loss_rate);
            }
        }

        // 2. Partition: (re)compute the group assignment while a window is
        // active (covering slots created by recoveries since the cut) and
        // heal when it closes. Groups are a pure function of the scenario
        // seed, window start and slot.
        let active = self.scenario.active_partition(round);
        let mut partition_checksum = 0u64;
        match active {
            Some((start, kind)) => {
                let k = kind.groups();
                let mut groups = vec![0u32; host.nodes().slot_count()];
                for id in host.nodes().id_vec() {
                    let g = self.scenario.partition_group(start, id.slot(), k);
                    groups[id.slot()] = g;
                    partition_checksum ^= derive_seed(id.slot() as u64, u64::from(g));
                }
                host.set_partition(Some(groups));
                self.partition_applied = Some(start);
                if let Some(t) = host.telemetry() {
                    t.record_fault_partition(round, partition_checksum);
                }
            }
            None => {
                if self.partition_applied.take().is_some() {
                    host.set_partition(None);
                }
            }
        }

        // 3. Crash waves firing this round: victims are drawn from a
        // scenario-seeded shuffle of the live population (taken in slot
        // order) and their state is wiped.
        let mut crashed: Vec<u32> = Vec::new();
        for (recover_round, fraction) in self.scenario.crashes_at(round) {
            let live = host.nodes().len();
            let k = ((fraction * live as f64).round() as usize).min(live.saturating_sub(1));
            if k == 0 {
                continue;
            }
            let mut ids = host.nodes().id_vec();
            ids.shuffle(&mut self.stream_rng(PHASE_CRASH, round));
            let mut wave = 0u32;
            for id in ids.into_iter().take(k) {
                if let Some(state) = host.nodes().remove(id) {
                    host.on_crash(id, state);
                    crashed.push(id.slot() as u32);
                    wave += 1;
                    if let Some(t) = host.telemetry() {
                        t.record_crash(round, id.slot() as u32);
                    }
                }
            }
            if wave > 0 {
                self.pending_recoveries.push((recover_round, wave));
            }
        }

        // 4. Recoveries due this round: the same number of fresh nodes
        // rejoins. All of the wave's states are drawn from the recover
        // stream before any engine draw (overlay views, churn schedules,
        // timer phases), so both engines rebuild identical nodes.
        let mut recovered = 0u32;
        self.pending_recoveries.retain(|&(when, count)| {
            if when <= round {
                recovered += count;
                false
            } else {
                true
            }
        });
        if recovered > 0 {
            let mut rng = self.stream_rng(PHASE_RECOVER, round);
            let states: Vec<H::Node> = (0..recovered).map(|_| host.make_node(&mut rng)).collect();
            let mut joined = Vec::with_capacity(states.len());
            for state in states {
                let id = host.nodes().insert(state);
                host.net().reset_slot(id.slot());
                host.on_recover(id, round, &mut rng);
                joined.push(id);
            }
            for id in joined {
                if let Some(t) = host.telemetry() {
                    t.record_recovery(round, id.slot() as u32);
                }
                host.on_rejoin(id);
            }
        }

        // 5. Attribute drift: rewrite live nodes' values in slot order from
        // the round's drift stream.
        let drifted = self.apply_drift(round, host);
        if drifted > 0 {
            if let Some(t) = host.telemetry() {
                t.record_fault_drift(round, drifted);
            }
        }

        // 6. Byzantine adversary: membership is a pure function of the
        // scenario seed, counted over the post-crash live population.
        let adversary = self.scenario.adversary_at(round);
        let byzantine = adversary
            .as_ref()
            .map(|adv| adv.count_byzantine(host.nodes().ids().map(|id| id.slot())))
            .unwrap_or(0);

        if loss_override.is_some()
            || active.is_some()
            || !crashed.is_empty()
            || recovered > 0
            || adversary.is_some()
            || drifted > 0
        {
            self.trace.records.push(RoundFaults {
                round,
                loss_rate,
                partition_active: active.is_some(),
                partition_checksum,
                crashed,
                recovered,
                byzantine,
                drifted,
            });
        }
        adversary
    }

    /// Applies the drift models active at `round` to every live node in
    /// slot order, returning the number of node mutations performed.
    fn apply_drift<H: FaultHost>(&self, round: u64, host: &mut H) -> u32 {
        let models = self.scenario.drifts_at(round);
        if models.is_empty() {
            return 0;
        }
        let mut rng = self.stream_rng(PHASE_DRIFT, round);
        let ids = host.nodes().id_vec();
        let mut drifted = 0u32;
        for model in models {
            for &id in &ids {
                let op = match model {
                    DriftModel::LinearRamp { per_round } => DriftOp::Shift(per_round),
                    DriftModel::Step { shift } => DriftOp::Shift(shift),
                    DriftModel::Jitter { sigma } => {
                        // One draw per node, consumed even when sigma is 0,
                        // keeping the stream aligned across scenarios.
                        let u = rng.random::<f64>();
                        DriftOp::Shift((2.0 * u - 1.0) * sigma)
                    }
                    DriftModel::Replacement { rate } => {
                        if rng.random::<f64>() >= rate {
                            continue;
                        }
                        DriftOp::Replace
                    }
                };
                host.drift_node(id, op, &mut rng);
                drifted += 1;
            }
        }
        drifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> FaultScenario {
        FaultScenario::new(7)
            .with_burst_loss(5, 10, 0.2)
            .with_burst_loss(8, 12, 0.5)
            .with_partition(10, 20, PartitionKind::Bisect)
            .with_crash_recover(15, 25, 0.1)
            .with_delay(0, 4, 3)
            .with_duplication(2, 6, 0.25)
    }

    #[test]
    fn validates_good_scenario() {
        assert!(scenario().validate().is_ok());
    }

    #[test]
    fn rejects_bad_rates_and_windows() {
        let bad = [
            FaultScenario::new(0).with_burst_loss(0, 5, 1.5),
            FaultScenario::new(0).with_burst_loss(0, 5, f64::NAN),
            FaultScenario::new(0).with_burst_loss(5, 0, 0.1),
            FaultScenario::new(0).with_crash_recover(5, 5, 0.1),
            FaultScenario::new(0).with_crash_recover(5, 10, -0.1),
            FaultScenario::new(0).with_duplication(0, 5, 2.0),
            FaultScenario::new(0).with_partition(0, 5, PartitionKind::Islands(1)),
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn loss_rate_takes_burst_maximum() {
        let s = scenario();
        assert_eq!(s.loss_rate_at(4), None);
        assert_eq!(s.loss_rate_at(5), Some(0.2));
        assert_eq!(s.loss_rate_at(9), Some(0.5));
        assert_eq!(s.loss_rate_at(11), Some(0.5));
        assert_eq!(s.loss_rate_at(12), None);
    }

    #[test]
    fn delay_and_duplication_windows() {
        let s = scenario();
        assert_eq!(s.extra_delay_at(0), 3);
        assert_eq!(s.extra_delay_at(4), 0);
        assert_eq!(s.duplication_rate_at(3), 0.25);
        assert_eq!(s.duplication_rate_at(6), 0.0);
    }

    #[test]
    fn partition_window_and_groups_are_deterministic() {
        let s = scenario();
        assert_eq!(s.active_partition(9), None);
        let (start, kind) = s.active_partition(10).unwrap();
        assert_eq!((start, kind), (10, PartitionKind::Bisect));
        assert_eq!(s.active_partition(20), None);
        // Pure function of (seed, window, slot): stable and 2-valued.
        let groups: Vec<u32> = (0..64).map(|slot| s.partition_group(10, slot, 2)).collect();
        let again: Vec<u32> = (0..64).map(|slot| s.partition_group(10, slot, 2)).collect();
        assert_eq!(groups, again);
        assert!(groups.contains(&0) && groups.contains(&1));
        assert!(groups.iter().all(|&g| g < 2));
    }

    #[test]
    fn crash_schedule_fires_once() {
        let s = scenario();
        assert!(s.crashes_at(14).is_empty());
        assert_eq!(s.crashes_at(15), vec![(25, 0.1)]);
        assert!(s.crashes_at(16).is_empty());
    }

    #[test]
    fn last_round_covers_all_events() {
        assert_eq!(scenario().last_round(), 25);
        assert_eq!(FaultScenario::new(0).last_round(), 0);
        let adv = FaultScenario::new(0).with_adversary(
            3,
            30,
            0.1,
            AdversaryModel::ValuePoisoning { magnitude: 4.0 },
        );
        assert_eq!(adv.last_round(), 30);
    }

    #[test]
    fn adversary_validation() {
        let good = FaultScenario::new(1).with_adversary(
            0,
            10,
            0.2,
            AdversaryModel::WeightInflation { factor: 8.0 },
        );
        assert!(good.validate().is_ok());
        let bad = [
            FaultScenario::new(1).with_adversary(
                0,
                10,
                1.5,
                AdversaryModel::ValuePoisoning { magnitude: 1.0 },
            ),
            FaultScenario::new(1).with_adversary(
                10,
                0,
                0.1,
                AdversaryModel::ValuePoisoning { magnitude: 1.0 },
            ),
            FaultScenario::new(1).with_adversary(
                0,
                10,
                0.1,
                AdversaryModel::ValuePoisoning {
                    magnitude: f64::NAN,
                },
            ),
            FaultScenario::new(1).with_adversary(
                0,
                10,
                0.1,
                AdversaryModel::WeightInflation { factor: 0.0 },
            ),
            FaultScenario::new(1).with_adversary(
                0,
                10,
                0.1,
                AdversaryModel::Equivocation { magnitude: -2.0 },
            ),
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn adversary_window_latest_start_wins() {
        let s = FaultScenario::new(5)
            .with_adversary(
                0,
                20,
                0.1,
                AdversaryModel::ValuePoisoning { magnitude: 2.0 },
            )
            .with_adversary(10, 15, 0.3, AdversaryModel::WeightInflation { factor: 4.0 });
        assert!(s.adversary_at(25).is_none());
        let early = s.adversary_at(5).unwrap();
        assert_eq!(
            early.model,
            AdversaryModel::ValuePoisoning { magnitude: 2.0 }
        );
        let mid = s.adversary_at(12).unwrap();
        assert_eq!(mid.model, AdversaryModel::WeightInflation { factor: 4.0 });
        let late = s.adversary_at(16).unwrap();
        assert_eq!(
            late.model,
            AdversaryModel::ValuePoisoning { magnitude: 2.0 }
        );
    }

    #[test]
    fn byzantine_membership_is_deterministic_and_proportional() {
        let s = FaultScenario::new(11).with_adversary(
            0,
            50,
            0.2,
            AdversaryModel::ValuePoisoning { magnitude: 3.0 },
        );
        let adv = s.adversary_at(7).unwrap();
        let members: Vec<bool> = (0..5000).map(|slot| adv.is_byzantine(slot)).collect();
        let again: Vec<bool> = (0..5000).map(|slot| adv.is_byzantine(slot)).collect();
        assert_eq!(members, again);
        // Membership is constant across rounds of the same window.
        let later = s.adversary_at(40).unwrap();
        assert!((0..5000).all(|slot| later.is_byzantine(slot) == members[slot]));
        let count = members.iter().filter(|&&b| b).count();
        // ~20% of 5000 = 1000; allow generous sampling slack.
        assert!((800..1200).contains(&count), "got {count} byzantine");
        assert_eq!(adv.count_byzantine(0..5000), count as u32);
    }

    #[test]
    fn corruption_seeds_follow_model_semantics() {
        let poison = FaultScenario::new(3)
            .with_adversary(
                0,
                50,
                1.0,
                AdversaryModel::ValuePoisoning { magnitude: 2.0 },
            )
            .adversary_at(0)
            .unwrap();
        // Consistent lie: same seed regardless of round or partner.
        assert_eq!(
            poison.corruption_seed(1, 7, 9),
            poison.corruption_seed(30, 7, 2)
        );
        let equiv = FaultScenario::new(3)
            .with_adversary(0, 50, 1.0, AdversaryModel::Equivocation { magnitude: 2.0 })
            .adversary_at(0)
            .unwrap();
        // Different lie per partner and per round.
        assert_ne!(
            equiv.corruption_seed(1, 7, 9),
            equiv.corruption_seed(1, 7, 2)
        );
        assert_ne!(
            equiv.corruption_seed(1, 7, 9),
            equiv.corruption_seed(2, 7, 9)
        );
        // And deterministic.
        assert_eq!(
            equiv.corruption_seed(1, 7, 9),
            equiv.corruption_seed(1, 7, 9)
        );
    }

    #[test]
    fn drift_validation() {
        let good = [
            FaultScenario::new(1).with_drift(0, 10, DriftModel::LinearRamp { per_round: -0.5 }),
            FaultScenario::new(1).with_drift(5, 6, DriftModel::Step { shift: 100.0 }),
            FaultScenario::new(1).with_drift(0, 30, DriftModel::Jitter { sigma: 0.0 }),
            FaultScenario::new(1).with_drift(0, 30, DriftModel::Replacement { rate: 1.0 }),
        ];
        for s in good {
            assert!(s.validate().is_ok(), "{s:?} should validate");
        }
        let bad = [
            FaultScenario::new(1).with_drift(
                0,
                10,
                DriftModel::LinearRamp {
                    per_round: f64::NAN,
                },
            ),
            FaultScenario::new(1).with_drift(
                0,
                10,
                DriftModel::Step {
                    shift: f64::INFINITY,
                },
            ),
            FaultScenario::new(1).with_drift(0, 10, DriftModel::Jitter { sigma: -1.0 }),
            FaultScenario::new(1).with_drift(0, 10, DriftModel::Replacement { rate: 1.5 }),
            FaultScenario::new(1).with_drift(10, 0, DriftModel::Step { shift: 1.0 }),
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn drift_window_semantics() {
        let s = FaultScenario::new(3)
            .with_drift(5, 15, DriftModel::LinearRamp { per_round: 2.0 })
            .with_drift(8, 20, DriftModel::Step { shift: 50.0 });
        assert!(s.has_drift());
        assert!(!FaultScenario::new(3).has_drift());
        assert!(s.drifts_at(4).is_empty());
        assert_eq!(
            s.drifts_at(5),
            vec![DriftModel::LinearRamp { per_round: 2.0 }]
        );
        // The step fires exactly once, at its window start.
        assert_eq!(
            s.drifts_at(8),
            vec![
                DriftModel::LinearRamp { per_round: 2.0 },
                DriftModel::Step { shift: 50.0 },
            ]
        );
        assert_eq!(
            s.drifts_at(9),
            vec![DriftModel::LinearRamp { per_round: 2.0 }]
        );
        assert!(s.drifts_at(15).is_empty());
        assert_eq!(s.last_round(), 20);
    }

    #[test]
    fn drift_rng_is_per_round_deterministic() {
        use rand::RngExt as _;
        let rt = FaultRuntime::new(FaultScenario::new(9).with_drift(
            0,
            10,
            DriftModel::Jitter { sigma: 1.0 },
        ));
        let a: Vec<f64> = {
            let mut rng = rt.stream_rng(PHASE_DRIFT, 3);
            (0..8).map(|_| rng.random::<f64>()).collect()
        };
        let b: Vec<f64> = {
            let mut rng = rt.stream_rng(PHASE_DRIFT, 3);
            (0..8).map(|_| rng.random::<f64>()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut rng = rt.stream_rng(PHASE_DRIFT, 4);
            (0..8).map(|_| rng.random::<f64>()).collect()
        };
        assert_ne!(a, c, "different rounds get different drift streams");
    }

    #[test]
    fn plan_flags_byzantine_endpoints() {
        let s = FaultScenario::new(17).with_adversary(
            0,
            10,
            0.5,
            AdversaryModel::Equivocation { magnitude: 2.0 },
        );
        let adv = s.adversary_at(0).unwrap();
        let byz = (0..100).find(|&slot| adv.is_byzantine(slot)).unwrap();
        let honest = (0..100).find(|&slot| !adv.is_byzantine(slot)).unwrap();
        assert!(adv.plan(0, honest, honest).is_none());
        let attack = adv.plan(0, byz, honest).unwrap();
        assert!(attack.initiator_seed.is_some());
        assert!(attack.partner_seed.is_none());
        let attack = adv.plan(0, honest, byz).unwrap();
        assert!(attack.initiator_seed.is_none());
        assert!(attack.partner_seed.is_some());
    }
}
