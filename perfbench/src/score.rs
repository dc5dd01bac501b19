//! Scores the estimates a run produced: Err_a through the repository's
//! evaluation pipeline, and the size estimate N̂.

use adam2_bench::{evaluate_peer_estimates, PeerEstimate};
use adam2_core::{Adam2Node, StepCdf};

use crate::stats::ratio;

/// Peers whose whole-domain CDF error is averaged into Err_a. All peers
/// of a clean run hold nearly the same estimate, but under churn the few
/// joiners that hold an older estimate must be sampled often enough for
/// Err_a to repeat across seeds.
const ERR_A_PEERS: usize = 512;

pub struct Score {
    pub err_a: f64,
    /// |mean N̂ − N| / N over the nodes that report an N̂.
    pub n_hat_rel_err: f64,
    pub with_estimate: usize,
    pub without_estimate: usize,
}

impl Score {
    pub fn coverage(&self) -> f64 {
        let live = self.with_estimate + self.without_estimate;
        ratio(self.with_estimate as f64, live as f64)
    }
}

/// Scores one estimate slot per live node (`None`: no estimate) and the
/// N̂ values reported with them against `truth`.
pub fn score(peers: &[Option<PeerEstimate>], n_hats: &[f64], truth: &StepCdf, seed: u64) -> Score {
    let report = evaluate_peer_estimates(peers, truth, ERR_A_PEERS, seed);
    let live = peers.len() as f64;
    let mean_n_hat = ratio(n_hats.iter().sum(), n_hats.len() as f64);
    Score {
        err_a: report.avg_cdf,
        n_hat_rel_err: ratio((mean_n_hat - live).abs(), live),
        with_estimate: report.peers_with_estimate,
        without_estimate: report.peers_without_estimate,
    }
}

/// [`score`] for simulator nodes.
pub fn score_nodes<'a>(
    nodes: impl Iterator<Item = &'a Adam2Node>,
    truth: &StepCdf,
    seed: u64,
) -> Score {
    let mut peers = Vec::new();
    let mut n_hats = Vec::new();
    for node in nodes {
        peers.push(node.estimate().map(|est| PeerEstimate {
            instance: est.instance.as_u64(),
            thresholds: est.thresholds.clone(),
            fractions: est.fractions.clone(),
            min: est.min,
            max: est.max,
        }));
        n_hats.extend(node.estimate().and_then(|e| e.n_hat));
    }
    score(&peers, &n_hats, truth, seed)
}
