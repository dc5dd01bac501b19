//! One workload of the Adam2 benchmark, in one process.
//!
//! `perfbench --workload NAME --seed N --seconds S --timed 0|1` sets the
//! workload up from the seed, repeats it until `S` seconds have passed,
//! and prints one JSON record on its last line: a manifest, the
//! end-to-end samples with min/median/max, output checks and, with
//! `--timed 1`, the per-layer metrics. `perfbench/run.py` is the
//! benchmark's entry point; it runs this binary once per process it needs.

mod cycle;
mod deploy;
mod event;
mod probe;
mod report;
mod score;
mod stats;

use serde::json::Value;

/// Worker threads for every engine and the reactor: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cycle_clean_100k() -> cycle::CycleParams {
    cycle::CycleParams {
        nodes: 100_000,
        lambda: 50,
        rounds_per_instance: 30,
        churn_rate: 0.0,
        loss_rate: 0.0,
        instances: 1,
        self_heal: None,
        // Seeds 101–110: Err_a at most 1.78e-3. N̂ is exact up to a float
        // residual of at most 1.9e-11; the ceiling leaves room for
        // summation-order changes and still fails any real N̂ defect.
        ceilings: report::Ceilings {
            err_a: 4e-3,
            n_hat_rel_err: Some(1e-10),
        },
    }
}

fn cycle_churn_10k() -> cycle::CycleParams {
    cycle::CycleParams {
        nodes: 10_000,
        lambda: 50,
        rounds_per_instance: 30,
        churn_rate: 0.001,
        loss_rate: 0.05,
        instances: 2,
        self_heal: Some((10, 0.05)),
        // Seeds 101–110: Err_a at most 1.59e-3.
        ceilings: report::Ceilings {
            err_a: 4e-3,
            n_hat_rel_err: None,
        },
    }
}

fn event_10k() -> event::EventParams {
    event::EventParams {
        nodes: 10_000,
        lambda: 50,
        rounds_per_instance: 30,
        period: 1_000,
        latency: (10, 60),
        // Seeds 101–110: Err_a at most 1.33e-3, |N̂ − N| / N at most 2.03e-2
        // (the asynchronous exchange's mass defect).
        ceilings: report::Ceilings {
            err_a: 3e-3,
            n_hat_rel_err: Some(5e-2),
        },
    }
}

fn deploy_reactor_1k() -> deploy::DeployParams {
    deploy::DeployParams {
        nodes: 1_000,
        lambda: 50,
        rounds_per_instance: 30,
        tick_ms: 200,
    }
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let i = args
        .iter()
        .position(|a| a == flag)
        .ok_or_else(|| format!("missing {flag}"))?;
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad value for {flag}"))
}

fn main() {
    // Fix the span clock's epoch before anything is measured.
    probe::now_ns();
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| -> Result<(String, u64, f64, bool), String> {
        Ok((
            arg(&args, "--workload")?,
            arg(&args, "--seed")?,
            arg(&args, "--seconds")?,
            arg::<u8>(&args, "--timed")? == 1,
        ))
    })();
    let (workload, seed, seconds, timed) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --timed 0|1");
            std::process::exit(2);
        }
    };
    let (params, report) = match workload.as_str() {
        "cycle_clean_100k" => {
            let p = cycle_clean_100k();
            (
                p.describe(),
                cycle::run("cycle_clean_100k", &p, seed, seconds, timed),
            )
        }
        "cycle_churn_10k" => {
            let p = cycle_churn_10k();
            (
                p.describe(),
                cycle::run("cycle_churn_10k", &p, seed, seconds, timed),
            )
        }
        "event_10k" => {
            let p = event_10k();
            (
                p.describe(),
                event::run("event_10k", &p, seed, seconds, timed),
            )
        }
        "deploy_reactor_1k" => {
            let p = deploy_reactor_1k();
            (
                p.describe(),
                deploy::run("deploy_reactor_1k", &p, seed, seconds, timed),
            )
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let manifest = Value::Object(vec![
        ("seed".into(), Value::Uint(seed)),
        ("timed".into(), Value::Bool(timed)),
        ("budget_s".into(), Value::Number(seconds)),
        ("nproc".into(), Value::Uint(threads() as u64)),
        ("threads".into(), Value::Uint(threads() as u64)),
        (
            "params".into(),
            Value::Object(
                params
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::String(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.to_json(manifest));
}
