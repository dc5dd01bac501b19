//! Validates telemetry export directories against the documented schema.
//!
//! Usage: `telemetry_check DIR...` where each `DIR` either contains a
//! single export (`manifest.json`, `rounds.jsonl`, `rounds.csv`,
//! `events.jsonl`) or is a parent whose subdirectories are exports (the
//! layout `--telemetry DIR` produces for multi-scenario binaries).
//!
//! `telemetry_check --bench FILE...` instead validates benchmark result
//! files (`BENCH_faults.json`, `BENCH_byzantine.json`, `BENCH_explore.json`,
//! `BENCH_deploy.json`, `BENCH_streaming.json`): the embedded manifest
//! must match the manifest schema, every result record must carry exactly
//! the documented fields, and the results must cover every scenario,
//! engine, configuration, backend or mode the benchmark defines.
//!
//! Every record must carry exactly the documented fields — unknown and
//! missing fields both fail — with the documented types, and every event
//! `kind` must be one of the known wire names (see DESIGN.md's telemetry
//! section). CI runs this against a faulted smoke run so schema drift in
//! either the exporter or the docs breaks the build.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Expected type of one schema field.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FieldType {
    /// Non-negative integer.
    Uint,
    /// JSON number or `null` (unmeasured round annotations).
    NumberOrNull,
    /// JSON string.
    Str,
    /// JSON string or `null` (e.g. `git_rev` outside a checkout).
    StrOrNull,
    /// JSON boolean.
    Bool,
}

/// `rounds.jsonl` / `rounds.csv` schema: the 22 per-round fields.
const ROUND_FIELDS: &[(&str, FieldType)] = &[
    ("round", FieldType::Uint),
    ("live_nodes", FieldType::Uint),
    ("err_max", FieldType::NumberOrNull),
    ("err_avg", FieldType::NumberOrNull),
    ("mass_weight_defect", FieldType::NumberOrNull),
    ("mass_fraction_defect", FieldType::NumberOrNull),
    ("round_bytes", FieldType::Uint),
    ("round_msgs", FieldType::Uint),
    ("exchanges", FieldType::Uint),
    ("repairs", FieldType::Uint),
    ("aborts", FieldType::Uint),
    ("faults", FieldType::Uint),
    ("crashes", FieldType::Uint),
    ("recoveries", FieldType::Uint),
    ("joins", FieldType::Uint),
    ("leaves", FieldType::Uint),
    ("heal_bumps", FieldType::Uint),
    ("bootstraps", FieldType::Uint),
    ("robust_rejects", FieldType::Uint),
    ("robust_trims", FieldType::Uint),
    ("inflight_exchanges", FieldType::Uint),
    ("queue_depth_max", FieldType::Uint),
];

/// `events.jsonl` schema.
const EVENT_FIELDS: &[(&str, FieldType)] = &[
    ("round", FieldType::Uint),
    ("slot", FieldType::Uint),
    ("instance", FieldType::Uint),
    ("kind", FieldType::Str),
    ("detail", FieldType::Uint),
];

/// Known event wire names.
const EVENT_KINDS: &[&str] = &[
    "exchange_started",
    "exchange_repaired",
    "exchange_aborted",
    "fault_loss",
    "fault_partition",
    "fault_crash",
    "fault_recovery",
    "self_heal_bump",
    "churn_join",
    "churn_leave",
    "instance_started",
];

/// `BENCH_byzantine.json` per-result schema (`--bench` mode).
const BYZANTINE_RESULT_FIELDS: &[(&str, FieldType)] = &[
    ("engine", FieldType::Str),
    ("model", FieldType::Str),
    ("fraction", FieldType::NumberOrNull),
    ("robust", FieldType::Bool),
    ("err_a", FieldType::NumberOrNull),
    ("err_m", FieldType::NumberOrNull),
    ("n_hat_rel_err", FieldType::NumberOrNull),
    ("honest_without_estimate", FieldType::Uint),
    ("byzantine", FieldType::Uint),
    ("robust_rejects", FieldType::Uint),
    ("robust_trims", FieldType::Uint),
    ("fingerprint", FieldType::Uint),
];

/// `BENCH_faults.json` per-result schema (`--bench` mode): one record per
/// (scenario, repair, self-heal) cell of the fault matrix.
const FAULT_RESULT_FIELDS: &[(&str, FieldType)] = &[
    ("scenario", FieldType::Str),
    ("repair", FieldType::Bool),
    ("self_heal", FieldType::Bool),
    ("err_a", FieldType::NumberOrNull),
    ("err_m", FieldType::NumberOrNull),
    ("weight_drift", FieldType::NumberOrNull),
    ("fraction_drift", FieldType::NumberOrNull),
    ("peers_without_estimate", FieldType::Uint),
    ("healed", FieldType::Uint),
    ("bootstraps", FieldType::Uint),
];

/// `BENCH_deploy.json` per-result schema (`--bench` mode): one record per
/// (backend, scenario) cell of the comparison matrix.
const DEPLOY_RESULT_FIELDS: &[(&str, FieldType)] = &[
    ("scenario", FieldType::Str),
    ("backend", FieldType::Str),
    ("nodes", FieldType::Uint),
    ("tick_ms", FieldType::Uint),
    ("err_a", FieldType::NumberOrNull),
    ("err_m", FieldType::NumberOrNull),
    ("peers_without_estimate", FieldType::Uint),
    ("mean_n_hat", FieldType::NumberOrNull),
    ("exchanges", FieldType::Uint),
    ("exchanges_completed", FieldType::Uint),
    ("repairs", FieldType::Uint),
    ("aborts", FieldType::Uint),
    ("shim_drops", FieldType::Uint),
    ("malformed_frames", FieldType::Uint),
    ("backpressure_drops", FieldType::Uint),
    ("throughput_eps", FieldType::NumberOrNull),
    ("p99_latency_us", FieldType::Uint),
    ("duration_s", FieldType::NumberOrNull),
    ("clean_shutdown", FieldType::Bool),
];

/// `BENCH_explore.json` per-campaign schema (`--bench` mode): one record
/// per explored protocol configuration.
const EXPLORE_RESULT_FIELDS: &[(&str, FieldType)] = &[
    ("config", FieldType::Str),
    ("iterations", FieldType::Uint),
    ("oracle_runs", FieldType::Uint),
    ("features", FieldType::Uint),
    ("violations", FieldType::Uint),
    ("verdict", FieldType::Str),
    ("first_hit_axes", FieldType::Uint),
    ("minimal_axes", FieldType::Uint),
    ("minimal_desc", FieldType::Str),
    ("detail", FieldType::NumberOrNull),
    ("fingerprint", FieldType::Uint),
    ("shrink_runs", FieldType::Uint),
];

/// `BENCH_streaming.json` per-result schema (`--bench` mode): one record
/// per (drift scenario, tracker mode) cell of the streaming matrix.
const STREAMING_RESULT_FIELDS: &[(&str, FieldType)] = &[
    ("scenario", FieldType::Str),
    ("mode", FieldType::Str),
    ("time_avg_err", FieldType::NumberOrNull),
    ("time_avg_err_max", FieldType::NumberOrNull),
    ("final_err", FieldType::NumberOrNull),
    ("launched", FieldType::Uint),
    ("completed", FieldType::Uint),
    ("restarts", FieldType::Uint),
    ("mean_divergence", FieldType::NumberOrNull),
    ("final_period", FieldType::Uint),
    ("messages", FieldType::Uint),
    ("bytes", FieldType::Uint),
    ("fingerprint", FieldType::Uint),
];

/// `BENCH_deploy.json` scale-sweep record schema.
const DEPLOY_SCALE_FIELDS: &[(&str, FieldType)] = &[
    ("backend", FieldType::Str),
    ("nodes", FieldType::Uint),
    ("tick_ms", FieldType::Uint),
    ("err_a", FieldType::NumberOrNull),
    ("sim_err_a", FieldType::NumberOrNull),
    ("peers_without_estimate", FieldType::Uint),
    ("mean_n_hat", FieldType::NumberOrNull),
    ("exchanges_completed", FieldType::Uint),
    ("throughput_eps", FieldType::NumberOrNull),
    ("p99_latency_us", FieldType::Uint),
    ("duration_s", FieldType::NumberOrNull),
    ("clean_shutdown", FieldType::Bool),
];

/// `manifest.json` schema.
const MANIFEST_FIELDS: &[(&str, FieldType)] = &[
    ("schema_version", FieldType::Uint),
    ("experiment", FieldType::Str),
    ("config_hash", FieldType::Uint),
    ("seed", FieldType::Uint),
    ("threads", FieldType::Uint),
    ("detected_cores", FieldType::Uint),
    ("git_rev", FieldType::StrOrNull),
];

/// A scalar from a flat (non-nested) JSON object.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Uint(u64),
    Number(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Parses a flat JSON object of scalar values. Exported telemetry never
/// nests objects or arrays, so this covers the full schema.
fn parse_flat_object(text: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut out = BTreeMap::new();
    let mut chars = text.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected '\"'".into());
            }
            let mut s = String::new();
            for c in chars.by_ref() {
                if c == '"' {
                    return Ok(s);
                }
                if c == '\\' {
                    return Err("escape sequences are not part of the schema".into());
                }
                s.push(c);
            }
            Err("unterminated string".into())
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key '{key}'"));
        }
        skip_ws(&mut chars);
        let value = if chars.peek() == Some(&'"') {
            Scalar::Str(parse_string(&mut chars)?)
        } else {
            let mut raw = String::new();
            while chars
                .peek()
                .is_some_and(|&c| c != ',' && c != '}' && !c.is_whitespace())
            {
                raw.push(chars.next().expect("peeked"));
            }
            if raw == "null" {
                Scalar::Null
            } else if raw == "true" || raw == "false" {
                Scalar::Bool(raw == "true")
            } else if let Ok(u) = raw.parse::<u64>() {
                Scalar::Uint(u)
            } else if let Ok(f) = raw.parse::<f64>() {
                Scalar::Number(f)
            } else {
                return Err(format!("key '{key}': unparsable value '{raw}'"));
            }
        };
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key '{key}'"));
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after object".into());
    }
    Ok(out)
}

/// Checks one parsed object against a schema: exact key set, field types.
fn check_fields(
    obj: &BTreeMap<String, Scalar>,
    schema: &[(&str, FieldType)],
) -> Result<(), String> {
    for key in obj.keys() {
        if !schema.iter().any(|(name, _)| name == key) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    for (name, ty) in schema {
        let value = obj
            .get(*name)
            .ok_or_else(|| format!("missing field '{name}'"))?;
        let ok = match ty {
            FieldType::Uint => matches!(value, Scalar::Uint(_)),
            FieldType::NumberOrNull => {
                matches!(value, Scalar::Uint(_) | Scalar::Number(_) | Scalar::Null)
            }
            FieldType::Str => matches!(value, Scalar::Str(_)),
            FieldType::StrOrNull => matches!(value, Scalar::Str(_) | Scalar::Null),
            FieldType::Bool => matches!(value, Scalar::Bool(_)),
        };
        if !ok {
            return Err(format!("field '{name}': expected {ty:?}, got {value:?}"));
        }
    }
    Ok(())
}

fn check_event(obj: &BTreeMap<String, Scalar>) -> Result<(), String> {
    check_fields(obj, EVENT_FIELDS)?;
    match obj.get("kind") {
        Some(Scalar::Str(kind)) if EVENT_KINDS.contains(&kind.as_str()) => Ok(()),
        Some(Scalar::Str(kind)) => Err(format!("unknown event kind '{kind}'")),
        _ => unreachable!("check_fields enforces kind is a string"),
    }
}

fn check_manifest(obj: &BTreeMap<String, Scalar>) -> Result<(), String> {
    check_fields(obj, MANIFEST_FIELDS)?;
    match obj.get("schema_version") {
        Some(Scalar::Uint(1)) => Ok(()),
        other => Err(format!("unsupported schema_version {other:?}")),
    }
}

/// The documented CSV header, derived from the same field list the JSONL
/// check uses so the two cannot drift apart.
fn expected_csv_header() -> String {
    ROUND_FIELDS
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(",")
}

struct ExportSummary {
    rounds: usize,
    events: usize,
}

/// Validates one export directory; returns counts on success.
fn validate_export(dir: &Path) -> Result<ExportSummary, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };

    let manifest =
        parse_flat_object(&read("manifest.json")?).map_err(|e| format!("manifest.json: {e}"))?;
    check_manifest(&manifest).map_err(|e| format!("manifest.json: {e}"))?;

    let rounds_text = read("rounds.jsonl")?;
    let mut rounds = 0usize;
    for (i, line) in rounds_text.lines().enumerate() {
        let obj =
            parse_flat_object(line).map_err(|e| format!("rounds.jsonl line {}: {e}", i + 1))?;
        check_fields(&obj, ROUND_FIELDS)
            .map_err(|e| format!("rounds.jsonl line {}: {e}", i + 1))?;
        rounds += 1;
    }

    let csv_text = read("rounds.csv")?;
    let mut csv_lines = csv_text.lines();
    let header = csv_lines.next().unwrap_or_default();
    if header != expected_csv_header() {
        return Err(format!(
            "rounds.csv: header mismatch\n  expected: {}\n  found:    {header}",
            expected_csv_header()
        ));
    }
    let csv_rows = csv_lines.count();
    if csv_rows != rounds {
        return Err(format!(
            "rounds.csv has {csv_rows} rows but rounds.jsonl has {rounds} records"
        ));
    }

    let events_text = read("events.jsonl")?;
    let mut events = 0usize;
    for (i, line) in events_text.lines().enumerate() {
        let obj =
            parse_flat_object(line).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        check_event(&obj).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        events += 1;
    }

    Ok(ExportSummary { rounds, events })
}

/// Validates one benchmark result file (`--bench` mode). The generators
/// emit a fixed layout — the embedded manifest inline on its own line and
/// one flat result object per line inside the `results` array — so a
/// line-based scan covers the full schema without a nested JSON parser.
fn validate_bench(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;

    let benchmark = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"benchmark\": "))
        .ok_or("missing \"benchmark\" field")?
        .trim_end_matches(',');
    // Per-benchmark layout: the result schema, the field whose values must
    // cover `coverage_values` across the results array, and an optional
    // second array with its own schema.
    type Schema = &'static [(&'static str, FieldType)];
    let (schema, coverage_field, coverage_values, extra_array): (
        Schema,
        &str,
        &[&str],
        Option<(&str, Schema)>,
    ) = match benchmark {
        "\"byzantine_resilience\"" => {
            (BYZANTINE_RESULT_FIELDS, "engine", &["cycle", "event"], None)
        }
        "\"fault_matrix\"" => (
            FAULT_RESULT_FIELDS,
            "scenario",
            &[
                "fault_free",
                "burst20",
                "burst20_partition10",
                "crash_recover",
            ],
            None,
        ),
        "\"scenario_explorer\"" => (
            EXPLORE_RESULT_FIELDS,
            "config",
            &["vanilla", "hardened"],
            None,
        ),
        "\"deploy_runtime\"" => (
            DEPLOY_RESULT_FIELDS,
            "backend",
            &["threaded", "reactor"],
            Some(("scale", DEPLOY_SCALE_FIELDS)),
        ),
        "\"streaming_tracker\"" => (
            STREAMING_RESULT_FIELDS,
            "mode",
            &[
                "restart_naive",
                "pipelined_fixed_fade",
                "pipelined_adaptive_fade",
                "pipelined_adaptive_restart",
            ],
            None,
        ),
        other => {
            return Err(format!(
                "unknown benchmark {other} (expected a --bench schema)"
            ))
        }
    };

    let manifest_line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"manifest\": "))
        .ok_or("missing \"manifest\" field")?
        .trim_end_matches(',');
    let manifest = parse_flat_object(manifest_line).map_err(|e| format!("manifest: {e}"))?;
    check_manifest(&manifest).map_err(|e| format!("manifest: {e}"))?;

    // `None` outside an array, otherwise the active array's name and the
    // schema its records must match.
    let mut in_array: Option<(&str, &[(&str, FieldType)])> = None;
    let mut results = 0usize;
    let mut covered: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        match in_array {
            None => {
                if trimmed == "\"results\": [" {
                    in_array = Some(("results", schema));
                } else if let Some((name, extra_schema)) = extra_array {
                    if trimmed == format!("\"{name}\": [") {
                        in_array = Some((name, extra_schema));
                    }
                }
            }
            Some((array, record_schema)) => {
                if trimmed == "]" || trimmed == "]," {
                    in_array = None;
                    continue;
                }
                let obj = parse_flat_object(trimmed.trim_end_matches(','))
                    .map_err(|e| format!("{array} line {}: {e}", i + 1))?;
                check_fields(&obj, record_schema)
                    .map_err(|e| format!("{array} line {}: {e}", i + 1))?;
                if array == "results" {
                    if let Some(Scalar::Str(value)) = obj.get(coverage_field) {
                        if !covered.contains(value) {
                            covered.push(value.clone());
                        }
                    }
                    results += 1;
                }
            }
        }
    }
    if in_array.is_some() {
        return Err("unterminated record array".into());
    }
    if results == 0 {
        return Err("no result records".into());
    }
    for required in coverage_values {
        if !covered.iter().any(|v| v == required) {
            return Err(format!("no results for {coverage_field} '{required}'"));
        }
    }
    Ok(results)
}

/// Expands an argument directory into export directories: itself when it
/// holds `rounds.jsonl` directly, otherwise its matching subdirectories.
fn collect_exports(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if dir.join("rounds.jsonl").is_file() {
        return Ok(vec![dir.to_path_buf()]);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut exports: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("rounds.jsonl").is_file())
        .collect();
    exports.sort();
    if exports.is_empty() {
        return Err(format!(
            "{}: no telemetry exports found (no rounds.jsonl here or in subdirectories)",
            dir.display()
        ));
    }
    Ok(exports)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = {
        let before = args.len();
        args.retain(|a| a != "--bench");
        args.len() != before
    };
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: telemetry_check DIR...");
        eprintln!("       telemetry_check --bench FILE...");
        eprintln!("validates telemetry exports (manifest.json, rounds.jsonl/.csv, events.jsonl)");
        eprintln!("or, with --bench, benchmark result files (BENCH_*.json)");
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut failed = false;
    if bench_mode {
        for arg in &args {
            match validate_bench(Path::new(arg)) {
                Ok(n) => println!("ok: {arg} ({n} results)"),
                Err(e) => {
                    eprintln!("FAIL: {arg}: {e}");
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    for arg in &args {
        let exports = match collect_exports(Path::new(arg)) {
            Ok(found) => found,
            Err(e) => {
                eprintln!("telemetry_check: {e}");
                failed = true;
                continue;
            }
        };
        for export in exports {
            match validate_export(&export) {
                Ok(s) => println!(
                    "ok: {} ({} rounds, {} events)",
                    export.display(),
                    s.rounds,
                    s.events
                ),
                Err(e) => {
                    eprintln!("FAIL: {}: {e}", export.display());
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let obj = parse_flat_object(r#"{"a":1,"b":2.5,"c":"x","d":null}"#).unwrap();
        assert_eq!(obj["a"], Scalar::Uint(1));
        assert_eq!(obj["b"], Scalar::Number(2.5));
        assert_eq!(obj["c"], Scalar::Str("x".into()));
        assert_eq!(obj["d"], Scalar::Null);
        // Pretty-printed (manifest.json style) parses too.
        let pretty = parse_flat_object("{\n  \"seed\": 42,\n  \"experiment\": \"t\"\n}").unwrap();
        assert_eq!(pretty["seed"], Scalar::Uint(42));
        assert!(parse_flat_object(r#"{"a":1"#).is_err());
        assert!(parse_flat_object(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_err());
    }

    fn valid_round_line() -> String {
        let fields: Vec<String> = ROUND_FIELDS
            .iter()
            .map(|(name, ty)| match ty {
                FieldType::NumberOrNull => format!("\"{name}\":null"),
                _ => format!("\"{name}\":0"),
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn round_schema_catches_unknown_and_missing_fields() {
        let good = parse_flat_object(&valid_round_line()).unwrap();
        check_fields(&good, ROUND_FIELDS).unwrap();

        let unknown = valid_round_line().replace("\"bootstraps\":0", "\"bootstrapz\":0");
        let err = check_fields(&parse_flat_object(&unknown).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("unknown field 'bootstrapz'"), "{err}");

        let missing = valid_round_line().replace(",\"bootstraps\":0", "");
        let err = check_fields(&parse_flat_object(&missing).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("missing field 'bootstraps'"), "{err}");

        let wrong_type = valid_round_line().replace("\"round\":0", "\"round\":null");
        let err = check_fields(&parse_flat_object(&wrong_type).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("field 'round'"), "{err}");
    }

    #[test]
    fn event_schema_requires_known_kind() {
        let good = parse_flat_object(
            r#"{"round":3,"slot":7,"instance":9,"kind":"exchange_repaired","detail":1}"#,
        )
        .unwrap();
        check_event(&good).unwrap();
        let bad =
            parse_flat_object(r#"{"round":3,"slot":7,"instance":9,"kind":"made_up","detail":1}"#)
                .unwrap();
        assert!(check_event(&bad)
            .unwrap_err()
            .contains("unknown event kind"));
    }

    #[test]
    fn manifest_schema_pins_version() {
        let good = parse_flat_object(
            r#"{"schema_version":1,"experiment":"t","config_hash":5,"seed":1,"threads":2,"detected_cores":4,"git_rev":null}"#,
        )
        .unwrap();
        check_manifest(&good).unwrap();
        let v2 = parse_flat_object(
            r#"{"schema_version":2,"experiment":"t","config_hash":5,"seed":1,"threads":2,"detected_cores":4,"git_rev":"abc"}"#,
        )
        .unwrap();
        assert!(check_manifest(&v2).unwrap_err().contains("schema_version"));
    }

    fn fault_result_line(scenario: &str) -> String {
        format!(
            "    {{\"scenario\": \"{scenario}\", \"repair\": true, \"self_heal\": false, \
             \"err_a\": 2.895e-3, \"err_m\": 9.25e-2, \"weight_drift\": 6.4e-15, \
             \"fraction_drift\": 1.1e-10, \"peers_without_estimate\": 0, \"healed\": 0, \
             \"bootstraps\": 1000}},"
        )
    }

    fn fault_bench_json() -> String {
        let scenarios = [
            "fault_free",
            "burst20",
            "burst20_partition10",
            "crash_recover",
        ];
        let lines: Vec<String> = scenarios.iter().map(|s| fault_result_line(s)).collect();
        format!(
            "{{\n  \"benchmark\": \"fault_matrix\",\n  \"manifest\": \
             {{\"schema_version\": 1, \"experiment\": \"bench_faults\", \"config_hash\": 5, \
             \"seed\": 42, \"threads\": 1, \"detected_cores\": 4, \"git_rev\": null}},\n  \
             \"nodes\": 10000,\n  \"results\": [\n{}\n  ]\n}}\n",
            lines.join("\n").trim_end_matches(',')
        )
    }

    #[test]
    fn bench_mode_accepts_the_fault_matrix_schema() {
        let dir = std::env::temp_dir().join("telemetry_check_faults_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_faults.json");
        std::fs::write(&path, fault_bench_json()).unwrap();
        assert_eq!(validate_bench(&path), Ok(4));

        // A record without the bootstrap count fails.
        std::fs::write(
            &path,
            fault_bench_json().replacen(", \"bootstraps\": 1000", "", 1),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("missing field 'bootstraps'"));

        // Dropping the crash-recover scenario fails.
        std::fs::write(
            &path,
            fault_bench_json().replace("\"crash_recover\"", "\"burst20\""),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("no results for scenario 'crash_recover'"));

        // A non-boolean repair flag fails.
        std::fs::write(
            &path,
            fault_bench_json().replacen("\"repair\": true", "\"repair\": 1", 1),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("'repair'"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_mode_rejects_the_manifest_less_fault_matrix_layout() {
        // The layout bench_faults wrote before manifests and bootstrap
        // counts existed.
        let dir = std::env::temp_dir().join("telemetry_check_faults_legacy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_faults.json");
        let legacy = "{\n  \"benchmark\": \"fault_matrix\",\n  \"nodes\": 10000,\n  \
             \"results\": [\n    {\"scenario\": \"fault_free\", \"repair\": false, \
             \"self_heal\": false, \"err_a\": 2.872627e-3, \"err_m\": 9.252860e-2, \
             \"weight_drift\": 6.439294e-15, \"fraction_drift\": 1.073204e-10, \
             \"peers_without_estimate\": 0, \"healed\": 0}\n  ]\n}\n";
        std::fs::write(&path, legacy).unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("missing \"manifest\" field"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn byzantine_result_line(engine: &str) -> String {
        format!(
            "    {{\"engine\": \"{engine}\", \"model\": \"value_poisoning\", \"fraction\": 0.1, \
             \"robust\": true, \"err_a\": 3.3e-3, \"err_m\": 9.4e-2, \"n_hat_rel_err\": null, \
             \"honest_without_estimate\": 0, \"byzantine\": 992, \"robust_rejects\": 54458, \
             \"robust_trims\": 188582, \"fingerprint\": 123}},"
        )
    }

    fn byzantine_bench_json() -> String {
        format!(
            "{{\n  \"benchmark\": \"byzantine_resilience\",\n  \"manifest\": \
             {{\"schema_version\": 1, \"experiment\": \"t\", \"config_hash\": 5, \"seed\": 1, \
             \"threads\": 2, \"detected_cores\": 4, \"git_rev\": null}},\n  \"results\": [\n\
             {}\n{}\n  ]\n}}\n",
            byzantine_result_line("cycle"),
            byzantine_result_line("event").trim_end_matches(',')
        )
    }

    #[test]
    fn bench_mode_accepts_the_byzantine_schema() {
        let dir = std::env::temp_dir().join("telemetry_check_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_byzantine.json");
        std::fs::write(&path, byzantine_bench_json()).unwrap();
        assert_eq!(validate_bench(&path), Ok(2));

        // A renamed result field fails.
        std::fs::write(&path, byzantine_bench_json().replace("err_a", "err_avg")).unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("unknown field"));

        // Dropping one engine's results fails.
        std::fs::write(
            &path,
            byzantine_bench_json().replace("\"event\"", "\"cycle\""),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("no results for engine 'event'"));

        // A non-boolean robust flag fails.
        std::fs::write(
            &path,
            byzantine_bench_json().replace("\"robust\": true", "\"robust\": 1"),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("'robust'"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn explore_result_line(config: &str) -> String {
        format!(
            "    {{\"config\": \"{config}\", \"iterations\": 26, \"oracle_runs\": 28, \
             \"features\": 81, \"violations\": 1, \"verdict\": \"err_regression\", \
             \"first_hit_axes\": 3, \"minimal_axes\": 1, \
             \"minimal_desc\": \"burst 5..15 rate 0.30\", \"detail\": 1.042176e1, \
             \"fingerprint\": 2106126027962506785, \"shrink_runs\": 7}},"
        )
    }

    fn explore_bench_json() -> String {
        format!(
            "{{\n  \"benchmark\": \"scenario_explorer\",\n  \"manifest\": \
             {{\"schema_version\": 1, \"experiment\": \"t\", \"config_hash\": 5, \"seed\": 1, \
             \"threads\": 1, \"detected_cores\": 4, \"git_rev\": null}},\n  \"results\": [\n\
             {}\n{}\n  ]\n}}\n",
            explore_result_line("vanilla"),
            explore_result_line("hardened").trim_end_matches(',')
        )
    }

    #[test]
    fn bench_mode_accepts_the_explorer_schema() {
        let dir = std::env::temp_dir().join("telemetry_check_explore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_explore.json");
        std::fs::write(&path, explore_bench_json()).unwrap();
        assert_eq!(validate_bench(&path), Ok(2));

        // A renamed result field fails.
        std::fs::write(
            &path,
            explore_bench_json().replace("minimal_axes", "min_axes"),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("unknown field"));

        // Dropping one config's results fails.
        std::fs::write(
            &path,
            explore_bench_json().replace("\"hardened\"", "\"vanilla\""),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("no results for config 'hardened'"));

        // A non-integer fingerprint fails.
        std::fs::write(
            &path,
            explore_bench_json().replace("\"shrink_runs\": 7", "\"shrink_runs\": -7"),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("'shrink_runs'"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn deploy_result_line(backend: &str, scenario: &str) -> String {
        format!(
            "    {{\"scenario\": \"{scenario}\", \"backend\": \"{backend}\", \"nodes\": 64, \
             \"tick_ms\": 40, \"err_a\": 7.5e-3, \"err_m\": 6.2e-2, \
             \"peers_without_estimate\": 0, \"mean_n_hat\": null, \"exchanges\": 1764, \
             \"exchanges_completed\": 1700, \"repairs\": 3, \"aborts\": 1, \"shim_drops\": 0, \
             \"malformed_frames\": 0, \"backpressure_drops\": 2, \"throughput_eps\": 1205.55, \
             \"p99_latency_us\": 4707, \"duration_s\": 1.402, \"clean_shutdown\": true}},"
        )
    }

    fn deploy_bench_json() -> String {
        let scale_line = "    {\"backend\": \"reactor\", \"nodes\": 10000, \"tick_ms\": 2000, \
             \"err_a\": 1.1e-3, \"sim_err_a\": 9.0e-4, \"peers_without_estimate\": 3, \
             \"mean_n_hat\": 9987.2101, \"exchanges_completed\": 280000, \
             \"throughput_eps\": 4385.12, \"p99_latency_us\": 12384, \"duration_s\": 63.9, \
             \"clean_shutdown\": true}";
        format!(
            "{{\n  \"benchmark\": \"deploy_runtime\",\n  \"manifest\": \
             {{\"schema_version\": 1, \"experiment\": \"t\", \"config_hash\": 5, \"seed\": 1, \
             \"threads\": 2, \"detected_cores\": 4, \"git_rev\": null}},\n  \"results\": [\n\
             {}\n{}\n  ],\n  \"scale\": [\n{scale_line}\n  ]\n}}\n",
            deploy_result_line("threaded", "clean"),
            deploy_result_line("reactor", "clean").trim_end_matches(',')
        )
    }

    #[test]
    fn bench_mode_accepts_the_deploy_schema() {
        let dir = std::env::temp_dir().join("telemetry_check_deploy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_deploy.json");
        std::fs::write(&path, deploy_bench_json()).unwrap();
        assert_eq!(validate_bench(&path), Ok(2));

        // A renamed throughput field fails.
        std::fs::write(
            &path,
            deploy_bench_json().replace("throughput_eps", "throughput"),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("unknown field"));

        // Dropping the reactor backend's results fails.
        std::fs::write(
            &path,
            deploy_bench_json().replacen(
                "\"backend\": \"reactor\", \"nodes\": 64",
                "\"backend\": \"threaded\", \"nodes\": 64",
                1,
            ),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("no results for backend 'reactor'"));

        // A malformed scale record fails with the array named.
        std::fs::write(
            &path,
            deploy_bench_json().replace("\"sim_err_a\": 9.0e-4, ", ""),
        )
        .unwrap();
        let err = validate_bench(&path).unwrap_err();
        assert!(err.contains("scale") && err.contains("sim_err_a"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn streaming_result_line(mode: &str) -> String {
        format!(
            "    {{\"scenario\": \"ramp30\", \"mode\": \"{mode}\", \"time_avg_err\": 1.78e-1, \
             \"time_avg_err_max\": 5.77e-1, \"final_err\": 5.79e-2, \"launched\": 28, \
             \"completed\": 25, \"restarts\": 0, \"mean_divergence\": 4.1e-2, \
             \"final_period\": 8, \"messages\": 132000, \"bytes\": 110898486, \
             \"fingerprint\": 12779057224404187916}},"
        )
    }

    fn streaming_bench_json() -> String {
        let modes = [
            "restart_naive",
            "pipelined_fixed_fade",
            "pipelined_adaptive_fade",
            "pipelined_adaptive_restart",
        ];
        let mut lines: Vec<String> = modes.iter().map(|m| streaming_result_line(m)).collect();
        let last = lines.last_mut().expect("modes non-empty");
        *last = last.trim_end_matches(',').to_string();
        format!(
            "{{\n  \"benchmark\": \"streaming_tracker\",\n  \"manifest\": \
             {{\"schema_version\": 1, \"experiment\": \"t\", \"config_hash\": 5, \"seed\": 11, \
             \"threads\": 1, \"detected_cores\": 4, \"git_rev\": null}},\n  \"results\": [\n\
             {}\n  ]\n}}\n",
            lines.join("\n")
        )
    }

    #[test]
    fn bench_mode_accepts_the_streaming_schema() {
        let dir = std::env::temp_dir().join("telemetry_check_streaming_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_streaming.json");
        std::fs::write(&path, streaming_bench_json()).unwrap();
        assert_eq!(validate_bench(&path), Ok(4));

        // A renamed result field fails.
        std::fs::write(
            &path,
            streaming_bench_json().replace("time_avg_err\"", "avg_err\""),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("unknown field"));

        // Dropping one tracker mode's results fails.
        std::fs::write(
            &path,
            streaming_bench_json().replace("\"pipelined_adaptive_restart\"", "\"restart_naive\""),
        )
        .unwrap();
        assert!(validate_bench(&path)
            .unwrap_err()
            .contains("no results for mode 'pipelined_adaptive_restart'"));

        // A negative restart count fails.
        std::fs::write(
            &path,
            streaming_bench_json().replace("\"restarts\": 0", "\"restarts\": -1"),
        )
        .unwrap();
        assert!(validate_bench(&path).unwrap_err().contains("'restarts'"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_header_tracks_round_fields() {
        assert_eq!(expected_csv_header().split(',').count(), ROUND_FIELDS.len());
        assert_eq!(ROUND_FIELDS.len(), 22);
    }
}
