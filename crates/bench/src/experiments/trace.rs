//! Seeded Perfetto trace: the headline session under a telemetry sink.
//!
//! `--trace PATH` opens the paper's test-1 shape at 2^13 stars (1024×1024,
//! ROI 10) with a full [`Telemetry`] sink attached (spans on every pipeline
//! stage, lane-event rings recording, launch traces draining), renders the
//! frames each under a `frame` span, and writes the Chrome trace-event JSON
//! to PATH, loadable in Perfetto or `chrome://tracing`. The returned table
//! is the sink's stage/counter/histogram rollup.

use std::path::Path;

use gpusim::{DeviceSpec, VirtualGpu};
use starfield::FieldGenerator;
use starsim_core::telemetry::write_chrome_trace;
use starsim_core::{AdaptiveSession, LutCache, LutSource, SessionSetup, Telemetry};

use super::Context;

/// Headline shape: the paper's test-1 workload at 2^13 stars.
const IMAGE_SIZE: usize = 1024;
const ROI_SIDE: usize = 10;
const STAR_COUNT: usize = 1 << 13;

/// Renders the traced session and writes its Chrome trace to `path`;
/// returns the rendered telemetry rollup table.
pub fn run(ctx: &Context, path: &Path) -> std::io::Result<String> {
    let frames = if ctx.quick { 6 } else { 24 };
    let mut config = ctx.sim_config(IMAGE_SIZE, IMAGE_SIZE, ROI_SIDE);
    config
        .workers
        .get_or_insert(DeviceSpec::gtx480().sm_count as usize);

    let telemetry = Telemetry::new();
    let catalog = {
        // Star generation is a pipeline stage too: generate the catalog
        // under a span so the trace shows it.
        let _gen = telemetry.span("star-gen");
        FieldGenerator::new(IMAGE_SIZE, IMAGE_SIZE).generate(STAR_COUNT, ctx.seed)
    };
    let cache = LutCache::new();
    let setup = SessionSetup {
        lut: LutSource::Cached(&cache),
        telemetry: Some(telemetry.clone()),
        ..SessionSetup::default()
    };
    let session = AdaptiveSession::open(VirtualGpu::gtx480(), config, setup).expect("session");
    let mut host = Vec::new();
    for _ in 0..frames {
        let _frame = telemetry.span("frame");
        session.render_into(&catalog, &mut host).expect("render");
    }

    write_chrome_trace(&telemetry, path)?;
    Ok(telemetry.frame_telemetry().render())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use starsim_core::telemetry::{parse_json, JsonValue};

    use super::*;

    #[test]
    fn trace_study_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_trace_bench");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let ctx = Context {
            quick: true,
            workers: Some(2),
            ..Default::default()
        };
        run(&ctx, &path).unwrap();

        let doc = parse_json(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let mut stages = BTreeSet::new();
        let mut nested_spans = 0;
        let mut lane_launches = 0;
        for e in events {
            let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
            let pid = e.get("pid").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
            if ph == "X" && pid == 1.0 {
                stages.insert(name);
                let parent = e
                    .get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                if parent != 0.0 {
                    nested_spans += 1;
                }
            }
            if ph == "i" && name == "launch" {
                lane_launches += 1;
            }
        }
        assert!(stages.len() >= 6, "only {} host stages", stages.len());
        assert!(nested_spans > 0, "spans must nest");
        assert!(lane_launches > 0, "lane launch instants missing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
