//! Cycle ↔ event engine fault-scenario parity (the PR 5 carry-over gap):
//! the same scenario, judged by the same oracle invariants, must reach
//! the same verdict *category* on both engines, and the event engine's
//! batch driver must be thread-count invariant under faults.
//!
//! Verdict **kind** is only compared where the physics makes it
//! deterministic: a fault-free run is `Clear` everywhere, while an
//! unrepaired loss burst breaks conservation on both engines but the
//! *sign* of the broken mass is a random walk over which halves of which
//! exchanges died, so the two engines may disagree on
//! inflation-vs-leakage while agreeing the invariant broke.

use adam2_explore::oracle::{ConfigKind, Oracle, OracleConfig, Verdict};
use adam2_sim::FaultScenario;

fn mass_broken(v: Verdict) -> bool {
    matches!(v, Verdict::MassInflation | Verdict::MassLeakage)
}

fn parity_at(nodes: usize) {
    let oracle = Oracle::new(OracleConfig::new(ConfigKind::Vanilla).with_nodes(nodes));

    // Fault-free: clear on both engines, and the event engine's parallel
    // driver is bit-identical across thread counts.
    assert_eq!(oracle.baseline().verdict, Verdict::Clear, "cycle baseline");
    let event_base = oracle.run_event(None, 2, None);
    assert_eq!(
        event_base.verdict,
        Verdict::Clear,
        "event baseline (detail {})",
        event_base.detail
    );
    assert_eq!(event_base.peers_without_estimate, 0);
    let event_base_seq = oracle.run_event(None, 1, None);
    assert_eq!(
        event_base.fingerprint, event_base_seq.fingerprint,
        "event engine must be thread-count invariant"
    );

    // Unrepaired loss burst: conservation breaks on both engines.
    let burst = FaultScenario::new(7).with_burst_loss(5, 15, 0.3);
    let cycle = oracle.run(&burst);
    assert!(
        mass_broken(cycle.verdict),
        "cycle burst verdict {:?} (detail {})",
        cycle.verdict,
        cycle.detail
    );
    let event = oracle.run_event(Some(&burst), 2, Some(event_base.err_a));
    assert!(
        mass_broken(event.verdict),
        "event burst verdict {:?} (detail {})",
        event.verdict,
        event.detail
    );
    let event_seq = oracle.run_event(Some(&burst), 1, Some(event_base.err_a));
    assert_eq!(
        event.fingerprint, event_seq.fingerprint,
        "thread-count invariance must survive injected faults"
    );
    assert_eq!(event.verdict, event_seq.verdict);
}

#[test]
fn cycle_event_parity_10k() {
    parity_at(10_000);
}

#[test]
#[ignore = "10^5-node event runs; run with --ignored (or via the scale CI lane)"]
fn cycle_event_parity_100k() {
    parity_at(100_000);
}

/// Every fault axis that rewrites the population, on both engines: the
/// fault traces must match record for record, and so must every live
/// slot's attribute value — including the nodes each crash–recover wave
/// rebuilds and the values the drift windows rewrite.
#[test]
fn fault_replay_matches_across_engines() {
    use adam2_bench::{adam2_engine_with, setup};
    use adam2_core::{Adam2Config, Adam2Node, AsyncAdam2};
    use adam2_sim::{
        AdversaryModel, DriftModel, EventConfig, EventEngine, LatencyModel, NodeSlab, PartitionKind,
    };
    use adam2_traces::Attribute;

    const NODES: usize = 500;
    const SEED: u64 = 42;
    const PERIOD: u64 = 200;
    const ROUNDS: u64 = 30;
    let scenario = FaultScenario::new(11)
        .with_burst_loss(5, 9, 0.3)
        .with_partition(8, 14, PartitionKind::Islands(3))
        .with_crash_recover(6, 12, 0.1)
        .with_crash_recover(10, 18, 0.15)
        .with_drift(4, 20, DriftModel::Jitter { sigma: 5.0 })
        .with_drift(4, 20, DriftModel::Replacement { rate: 0.05 })
        .with_adversary(
            0,
            ROUNDS,
            0.1,
            AdversaryModel::ValuePoisoning { magnitude: 5.0 },
        );

    let s = setup(Attribute::Ram, NODES, SEED);
    let mut cycle = adam2_engine_with(&s, Adam2Config::new().with_lambda(20), SEED, |c| {
        c.with_threads(2)
    });
    cycle.set_fault_scenario(scenario.clone()).unwrap();
    cycle.run_rounds_parallel(ROUNDS);

    let pop = s.population.clone();
    let proto = AsyncAdam2::with_population(PERIOD, s.population.values().to_vec(), move |rng| {
        pop.draw_fresh(rng)
    });
    let config = EventConfig::new(NODES, SEED)
        .with_gossip_period(PERIOD)
        .with_latency(LatencyModel::Uniform { min: 5, max: 40 })
        .with_threads(2);
    let mut event = EventEngine::new(config, proto);
    event.set_fault_scenario(scenario).unwrap();
    // Fault round r is applied when the clock enters tick r * PERIOD, so
    // stopping one tick short of ROUNDS periods covers rounds 0..ROUNDS.
    event.run_until_parallel(ROUNDS * PERIOD - 1);

    // Both engines run loss-free outside the burst, so even the records'
    // effective loss rates agree.
    let trace = cycle.fault_trace().unwrap();
    assert_eq!(trace, event.fault_trace().unwrap());
    // 10% of 500, then 15% of the 450 survivors.
    assert_eq!(trace.total_recovered(), 50 + 68);

    let values = |nodes: &NodeSlab<Adam2Node>| -> Vec<_> {
        nodes
            .iter()
            .map(|(id, node)| (id.slot(), node.value().clone()))
            .collect()
    };
    let (cycle_values, event_values) = (values(cycle.nodes()), values(event.nodes()));
    assert_eq!((cycle_values.len(), event_values.len()), (NODES, NODES));
    let differing = cycle_values
        .iter()
        .zip(&event_values)
        .filter(|(c, e)| c != e)
        .count();
    assert_eq!(differing, 0, "{differing} of {NODES} slots differ");
}
