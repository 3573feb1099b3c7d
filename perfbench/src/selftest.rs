//! `--self-test`: every workload once at a tiny size, untraced and
//! traced. Every metric must come out with its unit and match
//! BENCHMARK.json, and a deliberately corrupted pixel (dense-field) or
//! digest (wide-sky, session-churn) must fail the correctness check.
//! Run it from the repository root, where BENCHMARK.json lives.

use starsim::sim::telemetry::{parse_json, JsonValue};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::scene::Workload;
use crate::{trace, workloads};

const SEED: u64 = 7;
const SECONDS: f64 = 0.4;

pub fn run() -> Result<(), String> {
    catalogue_matches_benchmark_json()?;
    for w in Workload::ALL {
        let name = w.name();
        let shape = w.tiny_shape();
        let plain = workloads::run(w, SEED, SECONDS, shape, false)?;
        if !plain.correct {
            return Err(format!("{name}: untraced run failed: {:?}", plain.notes));
        }
        emitted(&plain.result_json(END_TO_END)?, END_TO_END)?;
        let traced = trace::run(w, SEED, SECONDS, shape)?;
        if !traced.correct {
            return Err(format!("{name}: traced run failed: {:?}", traced.notes));
        }
        emitted(&traced.result_json(PER_LAYER)?, PER_LAYER)?;
        let tampered = workloads::run(w, SEED, SECONDS, shape, true)?;
        if tampered.correct {
            return Err(format!("{name}: a corrupted output passed the check"));
        }
        println!("self-test: {name} ok");
    }
    Ok(())
}

fn parse(text: &str, what: &str) -> Result<JsonValue, String> {
    parse_json(text).map_err(|e| format!("{what}: {e}"))
}

/// The result line parses back, with the counts and every catalogue
/// metric present as `{value, unit}` with the catalogue's unit.
fn emitted(line: &str, catalogue: &[(&str, &str)]) -> Result<(), String> {
    let result = parse(line, "result line")?;
    for key in ["attempted", "failed"] {
        result
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("result line has no {key}"))?;
    }
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result line has no metrics object")?;
    if metrics.len() != catalogue.len() {
        return Err(format!(
            "{} metrics emitted, {} in the catalogue",
            metrics.len(),
            catalogue.len()
        ));
    }
    for (name, unit) in catalogue {
        let metric = metrics
            .get(*name)
            .ok_or_else(|| format!("{name} not emitted"))?;
        metric
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name} has no numeric value"))?;
        if metric.get("unit").and_then(JsonValue::as_str) != Some(*unit) {
            return Err(format!("{name} is not emitted in {unit}"));
        }
    }
    Ok(())
}

/// BENCHMARK.json names the same workloads, and the same metrics with the
/// same units in the same order, as this binary.
fn catalogue_matches_benchmark_json() -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = parse(&text, "BENCHMARK.json")?;
    let field = |entry: &JsonValue, key: &str| {
        entry
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    let list = |key: &str, fields: &[&str]| -> Result<Vec<Vec<Option<String>>>, String> {
        Ok(spec
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|entry| fields.iter().map(|f| field(entry, f)).collect())
            .collect())
    };
    let ours = |catalogue: &[(&str, &str)]| -> Vec<Vec<Option<String>>> {
        catalogue
            .iter()
            .map(|(n, u)| vec![Some(n.to_string()), Some(u.to_string())])
            .collect()
    };
    if list("end_to_end", &["name", "unit"])? != ours(END_TO_END) {
        return Err("BENCHMARK.json end_to_end differs from the binary's catalogue".into());
    }
    if list("per_layer", &["name", "unit"])? != ours(PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from the binary's catalogue".into());
    }
    let workloads: Vec<Vec<Option<String>>> = Workload::ALL
        .iter()
        .map(|w| vec![Some(w.name().to_string())])
        .collect();
    if list("workloads", &["name"])? != workloads {
        return Err("BENCHMARK.json workloads differ from the binary's".into());
    }
    Ok(())
}
