//! Deploy workload: a loopback-TCP cluster on the reactor runtime,
//! observed through `Cluster`'s public calls, `NodeStats` snapshots and
//! the reactor threads' CPU time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adam2_bench::{adam2_engine, complete_instance, setup, start_instance, PeerEstimate};
use adam2_core::{Adam2Config, AttrValue, BootstrapKind, InstanceMeta};
use adam2_deploy::{Cluster, ClusterConfig, LossShim, NodeConfig, RuntimeKind, StatsSnapshot};
use adam2_sim::ChurnModel;
use adam2_traces::Attribute;

use crate::report::{Report, Run};
use crate::score::{score, score_nodes};
use crate::stats::{self, process_cpu, ratio, threads_cpu};

/// Rounds between injecting an instance and its start round, so that the
/// `StartInstance` frame lands before gossip on it begins.
const WARMUP_ROUNDS: u64 = 3;

pub struct DeployParams {
    pub nodes: usize,
    pub lambda: usize,
    pub rounds_per_instance: u64,
    pub tick_ms: u64,
}

impl DeployParams {
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("runtime", format!("reactor, {} threads", crate::threads())),
            ("nodes", self.nodes.to_string()),
            ("lambda", self.lambda.to_string()),
            ("rounds_per_instance", self.rounds_per_instance.to_string()),
            ("tick_ms", self.tick_ms.to_string()),
            (
                "offered_exchanges_per_s",
                (self.nodes as u64 * 1000 / self.tick_ms).to_string(),
            ),
            ("network", "loopback TCP, no loss shim".into()),
            ("thresholds", "uniform over the population's range".into()),
            ("attribute", "cpu".into()),
            (
                "loop",
                "open: every node starts one exchange per tick whatever happens".into(),
            ),
        ]
    }

    fn node_config(&self, seed: u64) -> NodeConfig {
        let tick = Duration::from_millis(self.tick_ms);
        NodeConfig {
            tick,
            io_timeout: (tick / 4).clamp(Duration::from_millis(10), Duration::from_millis(500)),
            retries: 2,
            queue_capacity: 4,
            view_size: 12,
            seed,
        }
    }
}

/// Counters summed and peak gauges maxed over `snaps`.
fn sum(snaps: impl Iterator<Item = StatsSnapshot>) -> StatsSnapshot {
    let mut t = StatsSnapshot::default();
    for s in snaps {
        t.frames_sent += s.frames_sent;
        t.bytes_sent += s.bytes_sent;
        t.malformed_frames += s.malformed_frames;
        t.frames_rejected_invalid += s.frames_rejected_invalid;
        t.exchanges_started += s.exchanges_started;
        t.exchanges_completed += s.exchanges_completed;
        t.exchanges_aborted += s.exchanges_aborted;
        t.retransmissions += s.retransmissions;
        t.backpressure_drops += s.backpressure_drops;
        t.connections_accepted += s.connections_accepted;
        t.inflight_peak = t.inflight_peak.max(s.inflight_peak);
        t.queue_depth_peak = t.queue_depth_peak.max(s.queue_depth_peak);
    }
    t
}

fn totals(cluster: &Cluster) -> StatsSnapshot {
    sum(cluster.nodes().iter().map(|n| n.stats.snapshot()))
}

/// Per-exchange ratios of a window's stats delta; every base is the
/// number of exchanges started in the window.
fn exchange_ratios(d: &StatsSnapshot) -> [(&'static str, &'static str, f64); 6] {
    let started = d.exchanges_started as f64;
    let per = |part: u64| ratio(part as f64, started);
    [
        (
            "deploy.node.completion_ratio",
            "ratio",
            per(d.exchanges_completed),
        ),
        (
            "deploy.node.retransmit_ratio",
            "ratio",
            per(d.retransmissions),
        ),
        ("deploy.node.abort_ratio", "ratio", per(d.exchanges_aborted)),
        (
            "deploy.node.conns_per_exchange",
            "ratio",
            per(d.connections_accepted),
        ),
        ("deploy.frame.bytes_per_exchange", "B", per(d.bytes_sent)),
        (
            "deploy.frame.frames_per_exchange",
            "ratio",
            per(d.frames_sent),
        ),
    ]
}

pub fn run(name: &'static str, p: &DeployParams, seed: u64, seconds: f64, timed: bool) -> Report {
    let mut run = Run::new(name, seconds);
    // Reference: the simulator on the same population and instance.
    let reference = setup(Attribute::Cpu, p.nodes, seed);
    let config = Adam2Config::new()
        .with_lambda(p.lambda)
        .with_rounds_per_instance(p.rounds_per_instance)
        .with_bootstrap(BootstrapKind::Uniform)
        .with_domain_hint(reference.truth.min(), reference.truth.max());
    let mut engine = adam2_engine(&reference, config, seed, ChurnModel::None);
    let sim_meta = start_instance(&mut engine);
    complete_instance(&mut engine, p.rounds_per_instance);
    let sim_err_a = score_nodes(
        engine.nodes().iter().map(|(_, n)| n),
        &reference.truth,
        seed,
    )
    .err_a;
    drop(engine);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut checks: Vec<(&str, bool, String)> = Vec::new();
    let mut window = StatsSnapshot::default();
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut reactor_cpu = stats::CpuTimes::default();
    let (mut start_ms, mut collect_s, mut lag_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut err_a, mut n_hat_err) = (Vec::new(), Vec::new());

    while run.wants_rep() {
        let t0 = Instant::now();
        let s = setup(Attribute::Cpu, p.nodes, seed);
        let values: Vec<AttrValue> = s
            .population
            .values()
            .iter()
            .map(|v| AttrValue::Single(*v))
            .collect();
        let population_s = t0.elapsed().as_secs_f64();
        let node_config = p.node_config(seed);
        let tick = node_config.tick;
        let cluster_config = ClusterConfig::try_new(node_config)
            .and_then(|c| {
                c.with_runtime(RuntimeKind::Reactor {
                    threads: crate::threads(),
                })
            })
            .and_then(|c| c.with_bootstrap(10, (tick / 2).max(Duration::from_millis(50))))
            .map(|c| c.with_shim(LossShim::none()))
            .expect("deploy workload configuration is valid");
        let t1 = Instant::now();
        let cluster = match Cluster::launch(values, cluster_config) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: Cluster::launch failed: {e}");
                std::process::exit(1);
            }
        };
        let launch_s = t1.elapsed().as_secs_f64();
        run.setup_done(&[
            ("traces.population_s", population_s),
            ("deploy.cluster.launch_s", launch_s),
        ]);
        if !run.wants_measure() {
            let report = cluster.shutdown();
            checks.push(("clean_shutdown", report.clean, "set-up only".into()));
            continue;
        }

        let start_round = cluster.current_round() + WARMUP_ROUNDS;
        let meta = Arc::new(InstanceMeta {
            id: sim_meta.id,
            thresholds: sim_meta.thresholds.clone(),
            verify_thresholds: sim_meta.verify_thresholds.clone(),
            start_round,
            end_round: start_round + p.rounds_per_instance,
            multi: sim_meta.multi,
        });
        for node in cluster.nodes() {
            node.stats.take_latencies();
            node.stats.reset_peaks();
        }
        let before = totals(&cluster);
        let cpu0 = process_cpu();
        let reactor0 = threads_cpu("adam2-reactor");
        let round0 = cluster.current_round();
        let t_start = Instant::now();
        if let Err(e) = cluster.start_instance(0, Arc::clone(&meta)) {
            eprintln!("perfbench: start_instance failed: {e}");
            std::process::exit(1);
        }
        start_ms.push(t_start.elapsed().as_secs_f64() * 1e3);

        // Poll in process until every node holds this instance's estimate,
        // or a generous deadline passes.
        let deadline = tick * (WARMUP_ROUNDS + p.rounds_per_instance + 20) as u32;
        let holds = |c: &Cluster| {
            c.nodes()
                .iter()
                .filter(|n| {
                    n.estimate_wire()
                        .is_some_and(|e| e.instance == meta.id.as_u64())
                })
                .count()
        };
        while holds(&cluster) < cluster.len() && t_start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let wall = t_start.elapsed().as_secs_f64();
        // Most of `wall` is the tick schedule itself; what the runtime adds
        // beyond it is what a faster or slower reactor would change.
        let scheduled = tick * (WARMUP_ROUNDS + p.rounds_per_instance) as u32;
        lag_s.push(wall - scheduled.as_secs_f64());
        let rounds = cluster.current_round().saturating_sub(round0).max(1);
        let cpu = process_cpu().since(&cpu0).total();
        let r_cpu = threads_cpu("adam2-reactor").since(&reactor0);
        reactor_cpu.user_s += r_cpu.user_s;
        reactor_cpu.sys_s += r_cpu.sys_s;
        let d = totals(&cluster).delta(&before);
        for node in cluster.nodes() {
            latencies_us.extend(node.stats.take_latencies().into_iter().map(|us| us as f64));
        }
        run.sample("time_to_estimate_s", wall);
        run.sample("exchanges_per_s", ratio(d.exchanges_completed as f64, wall));
        run.sample(
            "cpu_us_per_exchange",
            ratio(cpu * 1e6, d.exchanges_completed as f64),
        );
        run.sample(
            "exchange_success_frac",
            ratio(d.exchanges_completed as f64, d.exchanges_started as f64),
        );
        run.sample(
            "bytes_per_node_round",
            ratio(d.bytes_sent as f64, (cluster.len() as u64 * rounds) as f64),
        );

        let t_collect = Instant::now();
        let estimates = cluster.collect_estimates(Duration::from_secs(10).max(tick * 8));
        collect_s.push(t_collect.elapsed().as_secs_f64());
        let peers: Vec<Option<PeerEstimate>> = estimates
            .iter()
            .map(|e| {
                e.as_ref().map(|e| PeerEstimate {
                    instance: e.instance,
                    thresholds: e.thresholds.clone(),
                    fractions: e.fractions.clone(),
                    min: e.min,
                    max: e.max,
                })
            })
            .collect();
        let n_hats: Vec<f64> = estimates.iter().flatten().filter_map(|e| e.n_hat).collect();
        let score = score(&peers, &n_hats, &s.truth, seed);
        err_a.push(score.err_a);
        n_hat_err.push(score.n_hat_rel_err);
        run.sample("estimate_coverage", score.coverage());
        attempted += cluster.len() as u64;
        failed += score.without_estimate as u64;
        checks.push((
            "deploy_err_a_within_2x_simulator",
            score.err_a <= sim_err_a * 2.0 + 1e-2,
            format!("deploy {:.4e} vs simulator {sim_err_a:.4e}", score.err_a),
        ));
        let bad = d.malformed_frames + d.frames_rejected_invalid;
        checks.push((
            "no_malformed_frames",
            bad == 0,
            format!("{bad} malformed or invalid"),
        ));
        window = sum([window, d].into_iter());

        let shutdown = cluster.shutdown();
        checks.push(("clean_shutdown", shutdown.clean, "measured".into()));
        run.rep_done();
    }

    let mut report = run.finish(attempted, failed);
    for (name, ok, detail) in checks {
        report.check(name, ok, detail);
    }
    report.note("deploy.simulator_err_a", sim_err_a);
    report.layer("err_a", "ratio", stats::median(&err_a).unwrap_or(0.0));
    report.layer(
        "n_hat_rel_err",
        "ratio",
        stats::median(&n_hat_err).unwrap_or(0.0),
    );
    if timed {
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        report.layer("deploy.cluster.start_instance_ms", "ms", med(&start_ms));
        report.layer("deploy.cluster.collect_s", "s", med(&collect_s));
        report.layer("deploy.cluster.estimate_lag_s", "s", med(&lag_s));
        for (name, unit, value) in exchange_ratios(&window) {
            report.layer(name, unit, value);
        }
        report.layer(
            "deploy.node.backpressure_drops",
            "count",
            window.backpressure_drops as f64,
        );
        report.layer(
            "deploy.node.inflight_peak",
            "count",
            window.inflight_peak as f64,
        );
        report.layer(
            "deploy.node.queue_depth_peak",
            "count",
            window.queue_depth_peak as f64,
        );
        let ms = |q: f64| stats::quantile(&latencies_us, q).unwrap_or(0.0) / 1e3;
        report.layer("deploy.node.exchange_p50_ms", "ms", ms(0.5));
        report.layer("deploy.node.exchange_p99_ms", "ms", ms(0.99));
        report.note("deploy.node.latency_samples", latencies_us.len() as f64);
        report.layer(
            "deploy.frame.malformed",
            "count",
            (window.malformed_frames + window.frames_rejected_invalid) as f64,
        );
        report.note(
            "deploy.frame.structurally_malformed",
            window.malformed_frames as f64,
        );
        report.note(
            "deploy.frame.rejected_invalid",
            window.frames_rejected_invalid as f64,
        );
        report.layer("deploy.reactor.cpu_user_s", "s", reactor_cpu.user_s);
        report.layer("deploy.reactor.cpu_sys_s", "s", reactor_cpu.sys_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_ratios_divide_by_exchanges_started() {
        let d = StatsSnapshot {
            exchanges_started: 200,
            exchanges_completed: 150,
            retransmissions: 20,
            exchanges_aborted: 10,
            connections_accepted: 400,
            bytes_sent: 50_000,
            frames_sent: 600,
            ..StatsSnapshot::default()
        };
        let r: std::collections::BTreeMap<_, _> = exchange_ratios(&d)
            .into_iter()
            .map(|(name, _, v)| (name, v))
            .collect();
        assert_eq!(r["deploy.node.completion_ratio"], 0.75);
        assert_eq!(r["deploy.node.retransmit_ratio"], 0.1);
        assert_eq!(r["deploy.node.abort_ratio"], 0.05);
        assert_eq!(r["deploy.node.conns_per_exchange"], 2.0);
        assert_eq!(r["deploy.frame.bytes_per_exchange"], 250.0);
        assert_eq!(r["deploy.frame.frames_per_exchange"], 3.0);
        let idle = exchange_ratios(&StatsSnapshot::default());
        assert!(idle.iter().all(|(_, _, v)| *v == 0.0));
    }
}
