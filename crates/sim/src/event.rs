//! Event-driven simulation: asynchronous messages with latency.
//!
//! The cycle-driven [`Engine`](crate::Engine) models PeerSim's synchronous
//! rounds where a push–pull exchange is *atomic*. Real networks are not
//! synchronous: a request and its response are separate messages with
//! latency, gossip timers drift, and concurrent exchanges interleave. This
//! module provides PeerSim's *other* execution model — an event queue with
//! per-message latencies — so protocols can be validated against the
//! asynchrony the cycle model hides (e.g. the mass-conservation variance
//! of non-atomic push–pull averaging, Jelasity et al. 2005, §4).
//!
//! Time is measured in abstract *ticks* (1 tick ≈ 1 ms at the paper's 1 s
//! gossip period with `gossip_period = 1000`).
//!
//! # Execution modes
//!
//! Future events live in a sharded [`TimerWheel`] (O(1) push/pop, buckets
//! per tick, shards by destination slot range). Two drivers drain it:
//!
//! * [`EventEngine::run_until`] — the sequential reference: events are
//!   handled one at a time in `(tick, seq)` order, exactly as the old
//!   `BinaryHeap` queue did.
//! * [`EventEngine::run_until_parallel`] — the batch mode for
//!   [`BatchAsyncProtocol`] implementations. Each tick is processed as one
//!   batch in three phases mirroring `Engine::run_round_parallel`:
//!   a sequential pre-pass (drop events for dead nodes, engine-level
//!   duplicate suppression, canonical delivery accounting), a parallel
//!   compute phase over the slot-disjoint wheel shards (per-event RNG
//!   streams derived from `(seed, tick, slot, seq)` counters, never from
//!   the thread), and a sequential merge that applies sends, faults, and
//!   timer reschedules in canonical `(shard, seq)` order. Every mutation
//!   order is thread-count-invariant, so results are bit-identical for any
//!   `threads` setting (asserted by tests below).

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::engine::{targeted_victim, SimConfigError};
use crate::faults::{ActiveAdversary, DriftOp, FaultHost, FaultRuntime, FaultScenario, FaultTrace};
use crate::node::{NodeId, NodeSlab, PeerView};
use crate::rng::{derive_seed, par_stream_rng, seeded_rng};
use crate::stats::NetStats;
use crate::telemetry::SimTelemetry;
use crate::wheel::TimerWheel;

/// Destination-slot shards in the timer wheel; also the unit of parallel
/// work in [`EventEngine::run_until_parallel`].
const EVENT_SHARDS: usize = 8;

/// Seed stream separating batch-mode per-event RNGs from the engine RNG
/// (ASCII "evnt").
const EVENT_PAR_STREAM: u64 = 0x65766e74;

/// Message latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniform latency in `[min, max]` ticks.
    Uniform {
        /// Minimum latency.
        min: u64,
        /// Maximum latency.
        max: u64,
    },
}

impl LatencyModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Uniform { min, max } => {
                if min == max {
                    *min
                } else {
                    rng.random_range(*min..=*max)
                }
            }
        }
    }

    /// Upper bound on a sampled latency (used to size the wheel horizon).
    fn max_ticks(&self) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Uniform { max, .. } => *max,
        }
    }
}

/// Configuration of the event-driven engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Initial number of nodes.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Gossip timer period in ticks (each node fires once per period, with
    /// a random initial phase).
    pub gossip_period: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Probability that any individual message is lost in transit.
    pub loss_rate: f64,
    /// Worker threads for [`EventEngine::run_until_parallel`]. Results are
    /// bit-identical for every value; `<= 1` runs inline.
    pub threads: usize,
}

impl EventConfig {
    /// A configuration with 1000-tick periods and 10–150-tick uniform
    /// latency (a wide-area network at a 1 s gossip period).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "n must be positive");
        Self {
            n,
            seed,
            gossip_period: 1000,
            latency: LatencyModel::Uniform { min: 10, max: 150 },
            loss_rate: 0.0,
            threads: 1,
        }
    }

    /// Replaces the gossip period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_gossip_period(mut self, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        self.gossip_period = period;
        self
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the message loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`.
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss_rate must be in [0, 1]"
        );
        self.loss_rate = loss_rate;
        self
    }

    /// Sets the worker-thread count for the parallel batch driver.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration. [`EventEngine::try_new`] calls this;
    /// use it directly to vet configs built by struct literal. In
    /// particular a `Uniform` latency with `min > max` is rejected here
    /// rather than silently degrading to `min` at sample time.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.n == 0 {
            return Err(SimConfigError::new("n must be positive"));
        }
        if self.gossip_period == 0 {
            return Err(SimConfigError::new("gossip_period must be positive"));
        }
        if !self.loss_rate.is_finite() || !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(SimConfigError::new(format!(
                "loss_rate {} must be in [0, 1]",
                self.loss_rate
            )));
        }
        if let LatencyModel::Uniform { min, max } = self.latency {
            if min > max {
                return Err(SimConfigError::new(format!(
                    "uniform latency min {min} exceeds max {max}"
                )));
            }
        }
        Ok(())
    }
}

/// An asynchronous protocol driven by the [`EventEngine`].
pub trait AsyncProtocol {
    /// Per-node protocol state.
    type Node;
    /// Message type exchanged between nodes. `Clone` lets the engine's
    /// fault injector deliver duplicates.
    type Message: Clone;

    /// Creates the state of a fresh node.
    fn make_node(&mut self, rng: &mut StdRng) -> Self::Node;

    /// The node's gossip timer fired.
    fn on_timer(&mut self, id: NodeId, ctx: &mut EventCtx<'_, Self::Node, Self::Message>);

    /// A message arrived.
    fn on_message(
        &mut self,
        id: NodeId,
        from: NodeId,
        message: Self::Message,
        ctx: &mut EventCtx<'_, Self::Node, Self::Message>,
    );

    /// Applies one attribute-drift operation to a live node (fault
    /// injection under a [`crate::FaultEvent::Drift`] window), mirroring
    /// `Protocol::drift_node` on the cycle engine. `rng` is the
    /// scenario-seeded drift stream. The default ignores drift.
    fn drift_node(&mut self, id: NodeId, node: &mut Self::Node, op: DriftOp, rng: &mut StdRng) {
        let _ = (id, node, op, rng);
    }
}

/// The parallel-batch extension of [`AsyncProtocol`], driven by
/// [`EventEngine::run_until_parallel`].
///
/// Batch handlers take `&self` (they run concurrently on slot-disjoint
/// node chunks) and a `&mut` to exactly the node the event targets.
/// Whole-protocol mutations are deferred: handlers accumulate them into a
/// per-shard [`Report`](BatchAsyncProtocol::Report), which the engine
/// feeds to [`absorb_report`](BatchAsyncProtocol::absorb_report)
/// sequentially in canonical shard order after the parallel phase joins.
///
/// Implementations must derive any randomness from the per-event RNG in
/// [`BatchCtx`] (a counter-based stream keyed on `(tick, slot, seq)`),
/// never from shared state — that is what makes batch runs bit-identical
/// across thread counts.
pub trait BatchAsyncProtocol: AsyncProtocol {
    /// Per-shard accumulator for deferred whole-protocol mutations
    /// (completion counts, dedup statistics, ...).
    type Report: Default + Send;

    /// The node's gossip timer fired (batch mode).
    fn par_on_timer(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        ctx: &mut BatchCtx<'_, '_, Self::Message>,
        report: &mut Self::Report,
    );

    /// A message arrived (batch mode). The engine has already suppressed
    /// fault-injected duplicate copies, so unlike the sequential path the
    /// handler never sees the same `(send)` twice.
    fn par_on_message(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        from: NodeId,
        message: Self::Message,
        ctx: &mut BatchCtx<'_, '_, Self::Message>,
        report: &mut Self::Report,
    );

    /// Folds one shard's report into the protocol, in canonical shard
    /// order. Runs sequentially after the parallel phase.
    fn absorb_report(&mut self, report: Self::Report);
}

/// Execution context for [`AsyncProtocol`] callbacks.
pub struct EventCtx<'a, N, M> {
    /// Current simulation time in ticks.
    pub now: u64,
    /// The gossip-period window (fault *round*) containing `now`.
    pub round: u64,
    /// The Byzantine adversary active in this window, if the attached
    /// [`FaultScenario`] has one. Protocols use it to corrupt their own
    /// state before sending (see [`ActiveAdversary`]).
    pub adversary: Option<ActiveAdversary>,
    /// All live nodes.
    pub nodes: &'a mut NodeSlab<N>,
    /// Engine RNG.
    pub rng: &'a mut StdRng,
    /// Network accounting (messages are charged when sent, even if later
    /// lost).
    pub net: &'a mut NetStats,
    outbox: &'a mut Vec<(NodeId, NodeId, M, usize)>,
}

impl<N, M> EventCtx<'_, N, M> {
    /// Sends `message` of `bytes` from `from` to `to` (delivered after the
    /// configured latency unless lost).
    pub fn send(&mut self, from: NodeId, to: NodeId, message: M, bytes: usize) {
        self.net.charge_message(from, to, bytes);
        self.outbox.push((from, to, message, bytes));
    }

    /// Draws a uniformly random live node other than `of` (the idealised
    /// peer-sampling service).
    ///
    /// A Byzantine `of` under a targeted-partner adversary deterministically
    /// aims at the lowest live slot instead of sampling, consuming no engine
    /// RNG (the same override as `Ctx::random_neighbour`).
    pub fn random_neighbour(&mut self, of: NodeId) -> Option<NodeId> {
        if let Some(victim) = targeted_victim(&self.adversary, self.nodes, of) {
            return Some(victim);
        }
        self.nodes.random_other(of, self.rng)
    }
}

/// Execution context for [`BatchAsyncProtocol`] callbacks.
///
/// Unlike [`EventCtx`] it exposes no slab access (workers own disjoint
/// node chunks through the engine, not the context) and no engine RNG:
/// randomness comes from a private per-event stream seeded by
/// `(seed, tick, slot, seq)`, and sends are buffered for the sequential
/// merge phase where network accounting and fault injection happen in
/// canonical order.
pub struct BatchCtx<'a, 'o, M> {
    now: u64,
    round: u64,
    adversary: Option<ActiveAdversary>,
    stamp: u64,
    rng: StdRng,
    peers: PeerView<'a>,
    sends: &'o mut Vec<(NodeId, NodeId, M, usize)>,
}

impl<M> BatchCtx<'_, '_, M> {
    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The gossip-period window (fault *round*) containing `now`.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The Byzantine adversary active in this window, if any.
    pub fn adversary(&self) -> Option<ActiveAdversary> {
        self.adversary
    }

    /// The globally unique, thread-count-invariant sequence stamp of the
    /// event being handled. Protocols needing a deterministic nonce (e.g.
    /// a message sequence number) use this instead of a shared counter.
    pub fn event_stamp(&self) -> u64 {
        self.stamp
    }

    /// The per-event RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Number of live nodes.
    pub fn live_len(&self) -> usize {
        self.peers.len()
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.peers.contains(id)
    }

    /// Sends `message` of `bytes` from `from` to `to`. The send is applied
    /// (charged, fault-checked, scheduled) during the sequential merge.
    pub fn send(&mut self, from: NodeId, to: NodeId, message: M, bytes: usize) {
        self.sends.push((from, to, message, bytes));
    }

    /// Draws a uniformly random live node other than `of`, bit-identical
    /// to [`EventCtx::random_neighbour`] given the same RNG state —
    /// including the deterministic targeted-partner override for Byzantine
    /// initiators.
    pub fn random_neighbour(&mut self, of: NodeId) -> Option<NodeId> {
        if let Some(adv) = &self.adversary {
            if adv.model.targets_partner() && adv.is_byzantine(of.slot()) {
                if let Some(victim) = self.peers.lowest_other(of) {
                    return Some(victim);
                }
            }
        }
        self.peers.random_other(of, &mut self.rng)
    }
}

#[derive(Debug)]
enum Event<M> {
    Timer(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        message: M,
        /// Per-send stamp shared by fault-injected duplicate copies, so
        /// the batch pre-pass can suppress redelivery without protocol
        /// cooperation.
        send_seq: u64,
    },
}

/// A deferred effect recorded by a batch worker, applied in the merge
/// phase. Per-shard op lists preserve each event's own ordering (sends
/// first, then the timer reschedule, as in the sequential path).
enum MergeOp<M> {
    Send {
        from: NodeId,
        to: NodeId,
        message: M,
        bytes: usize,
    },
    Timer(NodeId),
}

/// One shard's batch-phase output: recorded effects in event order plus
/// the shard's accumulated protocol report.
type ShardBatch<M, R> = (Vec<MergeOp<M>>, R);

/// Capacity bound for the duplicate-suppression window. Duplicate copies
/// arrive within one latency draw of the original, so entries far older
/// than that can be evicted.
const DUP_WINDOW: usize = 1 << 14;

/// The event-driven engine: a sharded timer wheel over the same node slab
/// and accounting as the cycle-driven engine.
pub struct EventEngine<P: AsyncProtocol> {
    protocol: P,
    nodes: NodeSlab<P::Node>,
    config: EventConfig,
    rng: StdRng,
    now: u64,
    wheel: TimerWheel<Event<P::Message>>,
    /// Stamp for the next send (shared by a message and its duplicates).
    send_seq: u64,
    /// Send stamps that have a fault-injected twin in flight.
    dup_pending: HashSet<u64>,
    /// Stamps from `dup_pending` already delivered once (batch mode).
    dup_delivered: HashSet<u64>,
    /// Eviction order for the two sets above.
    dup_fifo: VecDeque<u64>,
    dup_dropped: u64,
    net: NetStats,
    delivered: u64,
    lost: u64,
    duplicated: u64,
    faults: Option<FaultRuntime>,
    /// First fault round (gossip-period window) not yet processed by
    /// `advance_faults`.
    next_fault_round: u64,
    telemetry: Option<Box<SimTelemetry>>,
    /// First window (gossip period) not yet snapshotted.
    next_window: u64,
    /// Traffic totals at the last window boundary.
    win_bytes: u64,
    win_msgs: u64,
    /// Reused per-tick drain buckets for the batch driver.
    drain_scratch: Vec<VecDeque<(u64, Event<P::Message>)>>,
}

impl<P: AsyncProtocol> EventEngine<P> {
    /// Builds the engine, creating `config.n` nodes and scheduling their
    /// first gossip timers at random phases within one period.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`EventConfig::validate`]);
    /// use [`EventEngine::try_new`] for a `Result`.
    pub fn new(config: EventConfig, protocol: P) -> Self {
        Self::try_new(config, protocol).expect("invalid event-engine config")
    }

    /// Builds the engine, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`EventConfig::validate`] error for an invalid config.
    pub fn try_new(config: EventConfig, mut protocol: P) -> Result<Self, SimConfigError> {
        config.validate()?;
        let mut rng = seeded_rng(config.seed);
        let mut nodes = NodeSlab::with_capacity(config.n);
        for _ in 0..config.n {
            let state = protocol.make_node(&mut rng);
            nodes.insert(state);
        }
        // Horizon covering one period plus the worst regular latency: only
        // fault-injected delays overflow to the wheel's slow level.
        let horizon = config.gossip_period + config.latency.max_ticks() + 2;
        let mut engine = Self {
            protocol,
            nodes,
            config,
            rng,
            now: 0,
            wheel: TimerWheel::new(horizon, EVENT_SHARDS),
            send_seq: 0,
            dup_pending: HashSet::new(),
            dup_delivered: HashSet::new(),
            dup_fifo: VecDeque::new(),
            dup_dropped: 0,
            net: NetStats::new(),
            delivered: 0,
            lost: 0,
            duplicated: 0,
            faults: None,
            next_fault_round: 0,
            telemetry: None,
            next_window: 0,
            win_bytes: 0,
            win_msgs: 0,
            drain_scratch: Vec::new(),
        };
        for id in engine.nodes.id_vec() {
            let phase = engine.rng.random_range(0..engine.config.gossip_period);
            engine.schedule_timer(phase, id);
        }
        Ok(engine)
    }

    fn schedule_timer(&mut self, at: u64, id: NodeId) {
        self.wheel.push(at, id.slot() as u32, Event::Timer(id));
    }

    /// Runs until simulation time reaches `until` ticks, handling events
    /// one at a time in `(tick, seq)` order.
    pub fn run_until(&mut self, until: u64) {
        while let Some((at, _seq, event)) = self.wheel.pop_at_or_before(until) {
            self.now = at;
            self.roll_windows();
            self.advance_faults();
            match event {
                Event::Timer(id) => {
                    if self.nodes.contains(id) {
                        self.dispatch_timer(id);
                        let next = self.now + self.config.gossip_period;
                        self.schedule_timer(next, id);
                    }
                }
                Event::Deliver {
                    from, to, message, ..
                } => {
                    if self.nodes.contains(to) {
                        self.dispatch_message(to, from, message);
                    }
                }
            }
        }
        self.now = self.now.max(until);
        self.roll_windows();
        self.advance_faults();
    }

    fn dispatch_timer(&mut self, id: NodeId) {
        let mut outbox = Vec::new();
        let mut ctx = EventCtx {
            now: self.now,
            round: self.now / self.config.gossip_period,
            adversary: self.current_adversary(),
            nodes: &mut self.nodes,
            rng: &mut self.rng,
            net: &mut self.net,
            outbox: &mut outbox,
        };
        self.protocol.on_timer(id, &mut ctx);
        self.flush(outbox);
    }

    fn dispatch_message(&mut self, to: NodeId, from: NodeId, message: P::Message) {
        self.delivered += 1;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record_async_delivery();
        }
        let mut outbox = Vec::new();
        let mut ctx = EventCtx {
            now: self.now,
            round: self.now / self.config.gossip_period,
            adversary: self.current_adversary(),
            nodes: &mut self.nodes,
            rng: &mut self.rng,
            net: &mut self.net,
            outbox: &mut outbox,
        };
        self.protocol.on_message(to, from, message, &mut ctx);
        self.flush(outbox);
    }

    /// Attaches a [`FaultScenario`] (validated first): burst-loss windows
    /// override the configured loss rate, delay windows add delivery
    /// latency, duplication windows deliver extra message copies,
    /// partitions drop cross-group messages, crash waves remove nodes and
    /// recoveries re-insert them, and adversary windows activate Byzantine
    /// behaviour. Fault round windows are mapped to ticks via the gossip
    /// period. Replaces any previous scenario and clears its trace.
    pub fn set_fault_scenario(&mut self, scenario: FaultScenario) -> Result<(), SimConfigError> {
        scenario.validate()?;
        self.faults = Some(FaultRuntime::new(scenario));
        self.next_fault_round = self.now / self.config.gossip_period;
        Ok(())
    }

    /// The trace of injected round-windowed faults, if a scenario is
    /// attached. Identical across both drivers at any thread count.
    pub fn fault_trace(&self) -> Option<&FaultTrace> {
        self.faults.as_ref().map(|rt| &rt.trace)
    }

    /// Messages duplicated by the fault injector so far.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated
    }

    /// Duplicate copies suppressed by the batch driver so far (the
    /// sequential driver delivers duplicates and leaves suppression to the
    /// protocol).
    pub fn dup_dropped_count(&self) -> u64 {
        self.dup_dropped
    }

    /// Attaches a telemetry store. The engine records delivery/loss/
    /// duplication counters into it and emits one
    /// [`RoundSnapshot`](adam2_telemetry::RoundSnapshot) per elapsed
    /// gossip period; recording is purely observational and never consumes
    /// engine RNG, so attaching telemetry leaves the simulation
    /// bit-identical.
    pub fn attach_telemetry(&mut self, telemetry: SimTelemetry) {
        self.next_window = self.now / self.config.gossip_period;
        self.win_bytes = self.net.total_bytes();
        self.win_msgs = self.net.total_msgs();
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Detaches and returns the telemetry store, if any.
    pub fn detach_telemetry(&mut self) -> Option<SimTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// The attached telemetry store, if any.
    pub fn telemetry(&self) -> Option<&SimTelemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the attached telemetry store, if any.
    pub fn telemetry_mut(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Emits snapshots for every gossip-period window that has fully
    /// elapsed. Windows carry per-window traffic deltas; window `w` covers
    /// ticks `[w * period, (w + 1) * period)`. A no-op without telemetry.
    fn roll_windows(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        let period = self.config.gossip_period;
        while (self.next_window + 1) * period <= self.now {
            let bytes = self.net.total_bytes();
            let msgs = self.net.total_msgs();
            let live = self.nodes.len() as u64;
            let t = self.telemetry.as_deref_mut().expect("checked above");
            t.end_round(
                self.next_window,
                live,
                bytes - self.win_bytes,
                msgs - self.win_msgs,
            );
            self.win_bytes = bytes;
            self.win_msgs = msgs;
            self.next_window += 1;
        }
    }

    /// Emits a [`RoundSnapshot`](adam2_telemetry::RoundSnapshot) for the
    /// current *partial* window (full windows are emitted automatically as
    /// time advances). Useful at the end of a run to capture the tail. A
    /// no-op without telemetry.
    pub fn snapshot_telemetry(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        self.roll_windows();
        let bytes = self.net.total_bytes();
        let msgs = self.net.total_msgs();
        let live = self.nodes.len() as u64;
        let window = self.next_window;
        let t = self.telemetry.as_deref_mut().expect("checked above");
        t.end_round(window, live, bytes - self.win_bytes, msgs - self.win_msgs);
        self.win_bytes = bytes;
        self.win_msgs = msgs;
        self.next_window = window + 1;
    }

    /// Fault-adjusted (loss, extra delay, duplication) parameters for the
    /// current tick's round.
    fn fault_params(&self) -> (f64, u64, f64) {
        let round = self.now / self.config.gossip_period;
        match &self.faults {
            Some(rt) => (
                rt.scenario
                    .loss_rate_at(round)
                    .unwrap_or(self.config.loss_rate),
                rt.scenario.extra_delay_at(round),
                rt.scenario.duplication_rate_at(round),
            ),
            None => (self.config.loss_rate, 0, 0.0),
        }
    }

    /// The Byzantine adversary covering the current tick's round, if any.
    fn current_adversary(&self) -> Option<ActiveAdversary> {
        let round = self.now / self.config.gossip_period;
        self.faults
            .as_ref()
            .and_then(|rt| rt.scenario.adversary_at(round))
    }

    /// Applies the round-windowed faults ([`FaultRuntime::apply_round`]) of
    /// every gossip-period window entered since the last call. Runs at the
    /// same sequential points in both drivers, so the injected faults — and
    /// the resulting [`FaultTrace`] — are identical across the sequential
    /// and batch drivers at any thread count.
    fn advance_faults(&mut self) {
        let Some(mut rt) = self.faults.take() else {
            return;
        };
        let current = self.now / self.config.gossip_period;
        while self.next_fault_round <= current {
            rt.apply_round(self.next_fault_round, self.config.loss_rate, self);
            self.next_fault_round += 1;
        }
        self.faults = Some(rt);
    }

    /// Registers `send_seq` as having a duplicate twin in flight, evicting
    /// the oldest entry past the window bound.
    fn register_duplicate(&mut self, send_seq: u64) {
        if self.dup_fifo.len() >= DUP_WINDOW {
            if let Some(old) = self.dup_fifo.pop_front() {
                self.dup_pending.remove(&old);
                self.dup_delivered.remove(&old);
            }
        }
        self.dup_fifo.push_back(send_seq);
        self.dup_pending.insert(send_seq);
    }

    /// Decides the fate of one sent message — loss, latency, duplication —
    /// and schedules the surviving copies. Draws from the engine RNG in a
    /// fixed order (loss, latency, duplication, duplicate latency), so any
    /// caller that presents sends in canonical order gets deterministic
    /// fates.
    fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: P::Message,
        loss_rate: f64,
        extra_delay: u64,
        dup_rate: f64,
    ) {
        // Partition cut: cross-group sends are dropped while a window is
        // active. Group membership is a pure function of the scenario seed
        // and the check consumes no engine RNG, so downstream draws are
        // unaffected by whether a partition is configured.
        if self.partition_cut(from, to) {
            self.lost += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_loss();
            }
            return;
        }
        if loss_rate > 0.0 && self.rng.random::<f64>() < loss_rate {
            self.lost += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_loss();
            }
            return;
        }
        let latency = self.config.latency.sample(&mut self.rng).max(1) + extra_delay;
        let at = self.now + latency;
        self.send_seq += 1;
        let send_seq = self.send_seq;
        if dup_rate > 0.0 && self.rng.random::<f64>() < dup_rate {
            self.duplicated += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_duplicate();
            }
            let dup_latency = self.config.latency.sample(&mut self.rng).max(1) + extra_delay;
            self.register_duplicate(send_seq);
            self.wheel.push(
                self.now + dup_latency,
                to.slot() as u32,
                Event::Deliver {
                    from,
                    to,
                    message: message.clone(),
                    send_seq,
                },
            );
        }
        self.wheel.push(
            at,
            to.slot() as u32,
            Event::Deliver {
                from,
                to,
                message,
                send_seq,
            },
        );
    }

    /// Whether an active partition separates `from` and `to` at the
    /// current tick's round.
    fn partition_cut(&self, from: NodeId, to: NodeId) -> bool {
        let Some(rt) = &self.faults else {
            return false;
        };
        let round = self.now / self.config.gossip_period;
        let Some((start, kind)) = rt.scenario.active_partition(round) else {
            return false;
        };
        let k = kind.groups();
        rt.scenario.partition_group(start, from.slot(), k)
            != rt.scenario.partition_group(start, to.slot(), k)
    }

    fn flush(&mut self, outbox: Vec<(NodeId, NodeId, P::Message, usize)>) {
        let (loss_rate, extra_delay, dup_rate) = self.fault_params();
        for (from, to, message, _bytes) in outbox {
            self.route(from, to, message, loss_rate, extra_delay, dup_rate);
        }
    }

    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events pending in the timer wheel.
    pub fn pending_events(&self) -> usize {
        self.wheel.len()
    }

    /// The live nodes.
    pub fn nodes(&self) -> &NodeSlab<P::Node> {
        &self.nodes
    }

    /// Mutable node access.
    pub fn nodes_mut(&mut self) -> &mut NodeSlab<P::Node> {
        &mut self.nodes
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable protocol access.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Network statistics.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Engine RNG.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages lost in transit so far.
    pub fn lost_count(&self) -> u64 {
        self.lost
    }

    /// Invokes `f` with an execution context outside an event (used by
    /// drivers to trigger protocol actions deterministically).
    pub fn with_ctx<R>(
        &mut self,
        f: impl FnOnce(&mut P, &mut EventCtx<'_, P::Node, P::Message>) -> R,
    ) -> R {
        let mut outbox = Vec::new();
        let mut ctx = EventCtx {
            now: self.now,
            round: self.now / self.config.gossip_period,
            adversary: self.current_adversary(),
            nodes: &mut self.nodes,
            rng: &mut self.rng,
            net: &mut self.net,
            outbox: &mut outbox,
        };
        let result = f(&mut self.protocol, &mut ctx);
        self.flush(outbox);
        result
    }
}

/// The event engine's structural fault effects: partitions are enforced
/// per message in `route`, so the only engine-specific step is scheduling
/// a recovered node's first gossip timer within one period of `now` (the
/// batch tick in both drivers, so thread-count-invariant by construction).
impl<P: AsyncProtocol> FaultHost for EventEngine<P> {
    type Node = P::Node;

    fn nodes(&mut self) -> &mut NodeSlab<P::Node> {
        &mut self.nodes
    }

    fn net(&mut self) -> &mut NetStats {
        &mut self.net
    }

    fn telemetry(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_deref_mut()
    }

    fn make_node(&mut self, rng: &mut StdRng) -> P::Node {
        self.protocol.make_node(rng)
    }

    fn drift_node(&mut self, id: NodeId, op: DriftOp, rng: &mut StdRng) {
        if let Some(node) = self.nodes.get_mut(id) {
            self.protocol.drift_node(id, node, op, rng);
        }
    }

    fn on_recover(&mut self, id: NodeId, _round: u64, rng: &mut StdRng) {
        let phase = rng.random_range(0..self.config.gossip_period);
        self.schedule_timer(self.now + 1 + phase, id);
    }
}

impl<P> EventEngine<P>
where
    P: BatchAsyncProtocol + Sync,
    P::Node: Send,
    P::Message: Send,
{
    /// Runs until simulation time reaches `until` ticks, processing each
    /// tick as one parallel batch. See the module docs for the three-phase
    /// structure and the determinism argument. Results are bit-identical
    /// for every `config.threads` value, but batch runs are a *different*
    /// (equally valid) trajectory than [`EventEngine::run_until`] — the
    /// two drivers draw randomness differently.
    pub fn run_until_parallel(&mut self, until: u64) {
        let period = self.config.gossip_period;
        let threads = self.config.threads.max(1);
        let batch_base = derive_seed(self.config.seed, EVENT_PAR_STREAM);
        while let Some(tick) = self.wheel.next_tick() {
            if tick > until {
                break;
            }
            self.now = tick;
            self.roll_windows();
            self.advance_faults();
            let fault_round = tick / period;
            let adversary = self.current_adversary();
            let mut buckets = std::mem::take(&mut self.drain_scratch);
            self.wheel.drain_tick_into(tick, &mut buckets);

            // Phase 1 (sequential pre-pass): drop events for dead nodes,
            // suppress fault-duplicate redeliveries, and count deliveries
            // — all in canonical (shard, seq) order so counters and dedup
            // decisions are thread-count-invariant.
            {
                let nodes = &self.nodes;
                let dup_pending = &self.dup_pending;
                let dup_delivered = &mut self.dup_delivered;
                let dup_dropped = &mut self.dup_dropped;
                let delivered = &mut self.delivered;
                let telemetry = &mut self.telemetry;
                for bucket in &mut buckets {
                    bucket.retain(|(_, event)| match event {
                        Event::Timer(id) => nodes.contains(*id),
                        Event::Deliver { to, send_seq, .. } => {
                            if !nodes.contains(*to) {
                                return false;
                            }
                            if !dup_pending.is_empty()
                                && dup_pending.contains(send_seq)
                                && !dup_delivered.insert(*send_seq)
                            {
                                *dup_dropped += 1;
                                return false;
                            }
                            *delivered += 1;
                            if let Some(t) = telemetry.as_deref_mut() {
                                t.record_async_delivery();
                            }
                            true
                        }
                    });
                }
            }

            // Phase 2 (parallel): shards are slot-disjoint, so workers may
            // mutate their nodes through `RawSlots` without locks. Each
            // event gets a counter-based RNG stream; effects are recorded
            // as per-shard op lists instead of being applied.
            let shard_count = buckets.len();
            let mut results: Vec<ShardBatch<P::Message, P::Report>> = (0..shard_count)
                .map(|_| (Vec::new(), P::Report::default()))
                .collect();
            {
                let (view, raw) = self.nodes.batch_split();
                let protocol = &self.protocol;
                crate::executor::par_zip(
                    &mut buckets,
                    &mut results,
                    threads,
                    |_base, work, out| {
                        let mut sends = Vec::new();
                        for (bucket, (ops, report)) in work.iter_mut().zip(out.iter_mut()) {
                            while let Some((seq, event)) = bucket.pop_front() {
                                match event {
                                    Event::Timer(id) => {
                                        // SAFETY: this worker exclusively owns
                                        // every slot of its shards; the
                                        // pre-pass kept only live targets.
                                        if let Some(node) = unsafe { raw.get_mut(id) } {
                                            let mut ctx = BatchCtx {
                                                now: tick,
                                                round: fault_round,
                                                adversary,
                                                stamp: seq,
                                                rng: par_stream_rng(
                                                    batch_base,
                                                    tick,
                                                    id.slot() as u64,
                                                    seq,
                                                ),
                                                peers: view,
                                                sends: &mut sends,
                                            };
                                            protocol.par_on_timer(id, node, &mut ctx, report);
                                        }
                                        for (from, to, message, bytes) in sends.drain(..) {
                                            ops.push(MergeOp::Send {
                                                from,
                                                to,
                                                message,
                                                bytes,
                                            });
                                        }
                                        ops.push(MergeOp::Timer(id));
                                    }
                                    Event::Deliver {
                                        from, to, message, ..
                                    } => {
                                        // SAFETY: as above.
                                        if let Some(node) = unsafe { raw.get_mut(to) } {
                                            let mut ctx = BatchCtx {
                                                now: tick,
                                                round: fault_round,
                                                adversary,
                                                stamp: seq,
                                                rng: par_stream_rng(
                                                    batch_base,
                                                    tick,
                                                    to.slot() as u64,
                                                    seq,
                                                ),
                                                peers: view,
                                                sends: &mut sends,
                                            };
                                            protocol.par_on_message(
                                                to, node, from, message, &mut ctx, report,
                                            );
                                        }
                                        for (from, to, message, bytes) in sends.drain(..) {
                                            ops.push(MergeOp::Send {
                                                from,
                                                to,
                                                message,
                                                bytes,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    },
                );
            }

            // Phase 3 (sequential merge): apply ops in (shard, seq) order.
            // Fault fates draw from the engine RNG here, in canonical
            // order, so they are identical at any thread count.
            let (loss_rate, extra_delay, dup_rate) = self.fault_params();
            for (ops, report) in results {
                for op in ops {
                    match op {
                        MergeOp::Send {
                            from,
                            to,
                            message,
                            bytes,
                        } => {
                            self.net.charge_message(from, to, bytes);
                            self.route(from, to, message, loss_rate, extra_delay, dup_rate);
                        }
                        MergeOp::Timer(id) => {
                            self.schedule_timer(tick + period, id);
                        }
                    }
                }
                self.protocol.absorb_report(report);
            }
            self.drain_scratch = buckets;
        }
        self.now = self.now.max(until);
        self.roll_windows();
        self.advance_faults();
    }
}

impl<P: AsyncProtocol> std::fmt::Debug for EventEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventEngine")
            .field("now", &self.now)
            .field("live_nodes", &self.nodes.len())
            .field("pending_events", &self.wheel.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asynchronous push–pull averaging: the classic non-atomic variant.
    struct AsyncAveraging {
        next: f64,
    }

    #[derive(Clone)]
    enum Msg {
        Request(f64),
        Response(f64),
    }

    impl AsyncProtocol for AsyncAveraging {
        type Node = f64;
        type Message = Msg;

        fn make_node(&mut self, _rng: &mut StdRng) -> f64 {
            self.next += 1.0;
            self.next
        }

        fn on_timer(&mut self, id: NodeId, ctx: &mut EventCtx<'_, f64, Msg>) {
            let Some(partner) = ctx.random_neighbour(id) else {
                return;
            };
            let Some(v) = ctx.nodes.get(id).copied() else {
                return;
            };
            ctx.send(id, partner, Msg::Request(v), 8);
        }

        fn on_message(
            &mut self,
            id: NodeId,
            from: NodeId,
            message: Msg,
            ctx: &mut EventCtx<'_, f64, Msg>,
        ) {
            match message {
                Msg::Request(theirs) => {
                    let Some(mine) = ctx.nodes.get(id).copied() else {
                        return;
                    };
                    ctx.send(id, from, Msg::Response(mine), 8);
                    if let Some(v) = ctx.nodes.get_mut(id) {
                        *v = (mine + theirs) / 2.0;
                    }
                }
                Msg::Response(theirs) => {
                    if let Some(v) = ctx.nodes.get_mut(id) {
                        *v = (*v + theirs) / 2.0;
                    }
                }
            }
        }
    }

    impl BatchAsyncProtocol for AsyncAveraging {
        type Report = ();

        fn par_on_timer(
            &self,
            id: NodeId,
            node: &mut f64,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            _report: &mut (),
        ) {
            let Some(partner) = ctx.random_neighbour(id) else {
                return;
            };
            ctx.send(id, partner, Msg::Request(*node), 8);
        }

        fn par_on_message(
            &self,
            id: NodeId,
            node: &mut f64,
            from: NodeId,
            message: Msg,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            _report: &mut (),
        ) {
            match message {
                Msg::Request(theirs) => {
                    ctx.send(id, from, Msg::Response(*node), 8);
                    *node = (*node + theirs) / 2.0;
                }
                Msg::Response(theirs) => {
                    *node = (*node + theirs) / 2.0;
                }
            }
        }

        fn absorb_report(&mut self, _report: ()) {}
    }

    #[test]
    fn async_averaging_converges_near_the_mean() {
        let config = EventConfig::new(128, 5)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 });
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until(100 * 60);
        let expected = 129.0 / 2.0;
        // Non-atomic push-pull does not conserve mass exactly, but with
        // short latencies relative to the period the drift is small.
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
        for (_, v) in engine.nodes().iter() {
            assert!((v - mean).abs() < 1.0, "value {v} not converged to {mean}");
        }
    }

    #[test]
    fn timers_fire_once_per_period() {
        struct TimerCounter {
            fires: u64,
        }
        impl AsyncProtocol for TimerCounter {
            type Node = ();
            type Message = ();
            fn make_node(&mut self, _rng: &mut StdRng) {}
            fn on_timer(&mut self, _id: NodeId, _ctx: &mut EventCtx<'_, (), ()>) {
                self.fires += 1;
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut EventCtx<'_, (), ()>) {}
        }
        let config = EventConfig::new(10, 6).with_gossip_period(100);
        let mut engine = EventEngine::new(config, TimerCounter { fires: 0 });
        engine.run_until(1000);
        // 10 nodes x ~10 periods (random phases make it 90..110).
        let fires = engine.protocol().fires;
        assert!((90..=110).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn message_loss_is_applied_and_counted() {
        let config = EventConfig::new(64, 7)
            .with_gossip_period(50)
            .with_loss_rate(0.5);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until(50 * 40);
        let lost = engine.lost_count();
        let delivered = engine.delivered_count();
        let total = lost + delivered;
        let loss_frac = lost as f64 / total as f64;
        assert!((loss_frac - 0.5).abs() < 0.05, "loss fraction {loss_frac}");
        // Averaging still roughly works under 50% loss.
        let expected = 65.0 / 2.0;
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!((mean - expected).abs() / expected < 0.25, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let config = EventConfig::new(32, seed).with_gossip_period(80);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            engine.run_until(2000);
            engine.nodes().iter().map(|(_, v)| *v).collect::<Vec<f64>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fixed_latency_model() {
        let mut rng = seeded_rng(1);
        assert_eq!(LatencyModel::Fixed(42).sample(&mut rng), 42);
        let l = LatencyModel::Uniform { min: 5, max: 5 }.sample(&mut rng);
        assert_eq!(l, 5);
        for _ in 0..100 {
            let l = LatencyModel::Uniform { min: 3, max: 9 }.sample(&mut rng);
            assert!((3..=9).contains(&l));
        }
    }

    #[test]
    fn uniform_latency_with_min_above_max_is_rejected() {
        let config = EventConfig::new(8, 1).with_latency(LatencyModel::Uniform { min: 9, max: 3 });
        assert!(config.validate().is_err());
        assert!(EventEngine::try_new(config, AsyncAveraging { next: 0.0 }).is_err());
        // Degenerate (min == max) stays legal.
        let config = EventConfig::new(8, 1).with_latency(LatencyModel::Uniform { min: 4, max: 4 });
        assert!(config.validate().is_ok());
    }

    #[test]
    fn fault_burst_loss_applies_only_inside_the_window() {
        // Lossless base config; a full-loss burst over rounds [2, 4) (ticks
        // 100..200 at a 50-tick period... gossip_period 50 -> rounds are
        // 50-tick windows).
        let config = EventConfig::new(32, 13).with_gossip_period(50);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(1).with_burst_loss(2, 4, 1.0))
            .unwrap();
        engine.run_until(50 * 2 - 1);
        assert_eq!(engine.lost_count(), 0, "no loss before the burst");
        engine.run_until(50 * 4);
        let lost_in_burst = engine.lost_count();
        assert!(lost_in_burst > 0, "burst drops everything sent inside it");
        engine.run_until(50 * 8);
        let sent_after = engine.delivered_count();
        assert!(sent_after > 0, "loss stops when the burst ends");
    }

    #[test]
    fn fault_duplication_delivers_extra_copies() {
        let config = EventConfig::new(32, 14).with_gossip_period(50);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(2).with_duplication(0, 100, 1.0))
            .unwrap();
        engine.run_until(50 * 10);
        assert!(engine.duplicated_count() > 0);
        // Every sent message got a twin, so deliveries far exceed charged
        // sends / 2... just check the twin count matches extra deliveries.
        assert!(
            engine.delivered_count() >= engine.duplicated_count(),
            "duplicates are delivered too"
        );
        // The sequential driver leaves duplicate suppression to protocols.
        assert_eq!(engine.dup_dropped_count(), 0);
    }

    #[test]
    fn fault_delay_postpones_delivery() {
        // Fixed 5-tick latency, +200-tick delay window over the whole run:
        // nothing sent in round 0 can arrive before tick 205.
        let config = EventConfig::new(16, 15)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Fixed(5));
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(3).with_delay(0, 1, 200))
            .unwrap();
        engine.run_until(100);
        assert_eq!(engine.delivered_count(), 0, "deliveries pushed past t=205");
        engine.run_until(400);
        assert!(engine.delivered_count() > 0);
    }

    #[test]
    fn telemetry_counts_async_deliveries_and_losses() {
        let run = |attach: bool| {
            let config = EventConfig::new(32, 17)
                .with_gossip_period(50)
                .with_loss_rate(0.3);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            if attach {
                engine.attach_telemetry(SimTelemetry::new());
            }
            engine.run_until(50 * 20);
            engine.snapshot_telemetry();
            engine
        };
        let mut engine = run(true);
        let t = engine.detach_telemetry().expect("telemetry attached");
        let counter = |name| {
            let (_, v) = t
                .telemetry()
                .metrics
                .counters()
                .find(|(n, _)| *n == name)
                .unwrap();
            v
        };
        assert_eq!(counter("async_delivered"), engine.delivered_count());
        assert_eq!(counter("async_lost"), engine.lost_count());
        // One snapshot per elapsed gossip-period window (0..=19), plus the
        // explicit partial window 20 at the end.
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps.len(), 21);
        assert_eq!(snaps[0].round, 0);
        assert_eq!(snaps[20].round, 20);
        assert!(snaps.iter().all(|s| s.live_nodes == 32));
        // Window traffic is a per-window delta; the windows partition the
        // run, so the deltas sum back to the cumulative total.
        let windowed: u64 = snaps.iter().map(|s| s.round_bytes).sum();
        assert_eq!(windowed, engine.net().total_bytes());
        let windowed_msgs: u64 = snaps.iter().map(|s| s.round_msgs).sum();
        assert_eq!(windowed_msgs, engine.net().total_msgs());

        // Attaching telemetry must not perturb the simulation.
        let bare = run(false);
        let values = |e: &EventEngine<AsyncAveraging>| {
            e.nodes()
                .iter()
                .map(|(_, v)| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(values(&engine), values(&bare));
        assert_eq!(engine.delivered_count(), bare.delivered_count());
    }

    #[test]
    fn network_bytes_are_charged_even_for_lost_messages() {
        let config = EventConfig::new(16, 11)
            .with_gossip_period(50)
            .with_loss_rate(1.0);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until(500);
        assert!(
            engine.net().total_bytes() > 0,
            "senders still pay for lost messages"
        );
        assert_eq!(engine.delivered_count(), 0);
    }

    #[test]
    fn parallel_batch_averaging_converges() {
        let config = EventConfig::new(128, 5)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 })
            .with_threads(4);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until_parallel(100 * 60);
        let expected = 129.0 / 2.0;
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
        for (_, v) in engine.nodes().iter() {
            assert!((v - mean).abs() < 1.0, "value {v} not converged to {mean}");
        }
    }

    /// The satellite-mandated bit-identity check: batch runs must agree
    /// exactly — node state, counters, and traffic — at 1, 2, and 4
    /// worker threads.
    #[test]
    fn parallel_batch_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let config = EventConfig::new(96, 23)
                .with_gossip_period(60)
                .with_loss_rate(0.1)
                .with_threads(threads);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            engine.run_until_parallel(60 * 30);
            (
                engine
                    .nodes()
                    .iter()
                    .map(|(_, v)| v.to_bits())
                    .collect::<Vec<_>>(),
                engine.delivered_count(),
                engine.lost_count(),
                engine.net().total_bytes(),
                engine.net().total_msgs(),
            )
        };
        let base = run(1);
        assert_eq!(base, run(2), "threads=2 diverged from threads=1");
        assert_eq!(base, run(4), "threads=4 diverged from threads=1");
    }

    #[test]
    fn parallel_batch_suppresses_duplicate_copies_at_the_engine() {
        let config = EventConfig::new(32, 14)
            .with_gossip_period(50)
            .with_threads(2);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(2).with_duplication(0, 100, 1.0))
            .unwrap();
        engine.run_until_parallel(50 * 10);
        assert!(engine.duplicated_count() > 0);
        assert!(
            engine.dup_dropped_count() > 0,
            "batch driver drops redundant twins"
        );
        assert!(engine.dup_dropped_count() <= engine.duplicated_count());
    }

    #[test]
    fn parallel_batch_emits_windowed_snapshots() {
        let config = EventConfig::new(32, 19)
            .with_gossip_period(50)
            .with_threads(2);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.attach_telemetry(SimTelemetry::new());
        engine.run_until_parallel(50 * 10);
        let t = engine.detach_telemetry().expect("telemetry attached");
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps.len(), 10, "one snapshot per elapsed window");
        let windowed: u64 = snaps.iter().map(|s| s.round_bytes).sum();
        assert_eq!(windowed, engine.net().total_bytes());
    }

    /// The PR 2 fault matrix: burst loss, a bisecting partition, and a
    /// crash wave with delayed recovery, all overlapping.
    fn fault_matrix_scenario() -> crate::faults::FaultScenario {
        crate::faults::FaultScenario::new(99)
            .with_burst_loss(3, 8, 0.4)
            .with_partition(5, 12, crate::faults::PartitionKind::Bisect)
            .with_crash_recover(2, 9, 0.2)
    }

    fn faulted_engine(threads: usize) -> EventEngine<AsyncAveraging> {
        let config = EventConfig::new(10_000, 4242)
            .with_gossip_period(50)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 })
            .with_threads(threads);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.set_fault_scenario(fault_matrix_scenario()).unwrap();
        engine
    }

    fn faulted_fingerprint(engine: &EventEngine<AsyncAveraging>) -> (Vec<u64>, u64, u64, u64) {
        let mut bits: Vec<u64> = engine.nodes().iter().map(|(_, v)| v.to_bits()).collect();
        bits.push(engine.nodes().len() as u64);
        (
            bits,
            engine.delivered_count(),
            engine.lost_count(),
            engine.net().total_bytes(),
        )
    }

    /// Satellite check: replaying the fault matrix at 10^4 nodes through
    /// the batch driver produces exactly the fault trace of the sequential
    /// event path. Node trajectories legitimately differ (the drivers draw
    /// randomness differently); the injected faults must not.
    #[test]
    fn fault_trace_parity_between_sequential_and_batch_drivers() {
        let until = 50 * 16;
        let mut seq = faulted_engine(1);
        seq.run_until(until);
        let mut batch = faulted_engine(2);
        batch.run_until_parallel(until);

        let seq_trace = seq.fault_trace().expect("scenario attached").clone();
        let batch_trace = batch.fault_trace().expect("scenario attached").clone();
        assert_eq!(seq_trace, batch_trace, "fault traces diverged");
        assert!(seq_trace.total_crashed() > 0, "crash wave fired");
        assert_eq!(
            seq_trace.total_crashed(),
            seq_trace.total_recovered(),
            "every crashed node recovered"
        );
        assert!(
            seq_trace.records.iter().any(|r| r.partition_active),
            "partition window recorded"
        );
        assert!(
            seq_trace
                .records
                .iter()
                .any(|r| r.partition_active && r.partition_checksum != 0),
            "partition checksum recorded"
        );
        // Both drivers end with the full population back (crash wave fully
        // recovered), and the partition actually dropped traffic.
        assert_eq!(seq.nodes().len(), 10_000);
        assert_eq!(batch.nodes().len(), 10_000);
        assert!(seq.lost_count() > 0);
        assert!(batch.lost_count() > 0);
    }

    /// Satellite check: the batch driver under the full fault matrix is
    /// bit-identical (states, counters, trace) at 1, 2, and 4 threads.
    #[test]
    fn batch_faulted_run_is_bit_identical_across_thread_counts() {
        let until = 50 * 16;
        let run = |threads: usize| {
            let mut engine = faulted_engine(threads);
            engine.run_until_parallel(until);
            let trace = engine.fault_trace().expect("scenario attached").clone();
            (faulted_fingerprint(&engine), trace)
        };
        let base = run(1);
        assert_eq!(base, run(2), "threads=2 diverged from threads=1");
        assert_eq!(base, run(4), "threads=4 diverged from threads=1");
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;

    struct Ping;
    impl AsyncProtocol for Ping {
        type Node = ();
        type Message = u64;
        fn make_node(&mut self, _rng: &mut StdRng) {}
        fn on_timer(&mut self, id: NodeId, ctx: &mut EventCtx<'_, (), u64>) {
            if let Some(p) = ctx.random_neighbour(id) {
                ctx.send(id, p, ctx.now, 8);
            }
        }
        fn on_message(&mut self, _: NodeId, _: NodeId, _: u64, _: &mut EventCtx<'_, (), u64>) {}
    }

    #[test]
    fn event_store_is_bounded_by_pending_events() {
        let config = EventConfig::new(64, 21).with_gossip_period(10);
        let mut engine = EventEngine::new(config, Ping);
        // Long run: thousands of events scheduled and consumed.
        engine.run_until(10 * 2_000);
        // The wheel must hold only the *pending* events (one timer per
        // node plus in-flight messages), not the total ever scheduled
        // (~192k here).
        let pending = engine.pending_events();
        assert!(
            pending < 64 * 20,
            "event store grew unboundedly: {pending} pending"
        );
    }
}
