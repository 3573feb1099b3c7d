//! The metric catalogue, summary statistics, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`: every untraced run reports all of
/// them. Operation failures are not a metric here: they are the result
/// line's `attempted` / `failed` counts.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "frames/s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("modeled_gpu_ms_per_frame", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_frame", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run reports all of
/// them; a layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // prepare: starfield::fov, dynamics
    ("fov.view_ms", "ms"),
    ("fov.stars_in_view", "count"),
    ("fov.useful_ratio", "fraction"),
    ("dynamics.step_us", "us"),
    // scene and session setup: core::session, starfield::generator
    ("scene.sky_gen_ms", "ms"),
    ("lut.build_ms", "ms"),
    ("session.open_ms", "ms"),
    ("lut_cache.hit_ratio", "fraction"),
    ("lut_cache.evictions", "count"),
    // upload: AdaptiveSession::prepare_stars
    ("upload.prepare_ms", "ms"),
    ("upload.bytes_per_frame", "bytes"),
    ("transfer.modeled_ms", "ms"),
    // executor: gpusim::exec, pool (render.other_ms: the rest of
    // render_prepared_into, outside the launch and the download)
    ("render.other_ms", "ms"),
    ("exec.launch_ms", "ms"),
    ("exec.dispatch_ms", "ms"),
    ("exec.merge_ms", "ms"),
    ("exec.launch_other_ms", "ms"),
    ("exec.scaling_efficiency", "fraction"),
    // kernel, modeled: gpusim::counters, analyze
    ("kernel.modeled_ms", "ms"),
    ("kernel.tex_hit_ratio", "fraction"),
    ("kernel.atomic_conflicts_per_frame", "count"),
    ("kernel.global_tx_per_request", "ratio"),
    ("kernel.flops_per_frame", "count"),
    ("analyze.tex_hit_floor", "fraction"),
    // download: VirtualGpu::try_download_take
    ("download.ms_per_frame", "ms"),
    ("download.bytes_per_frame", "bytes"),
    // frame loop: core::frames
    ("pipeline.produce_busy_ms", "ms"),
    ("pipeline.consume_busy_ms", "ms"),
    ("pipeline.measured_overlap", "fraction"),
    // wire and reply: core::protocol, core::server
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_op", "bytes"),
    ("server.digest_ms_per_frame", "ms"),
    ("server.round_trip_overhead_ms", "ms"),
    // admission: core::admission
    ("admission.rejected_ratio", "fraction"),
    ("admission.depth_mean", "count"),
    // the trace itself
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// What one run measured and concluded.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Marks the run incorrect, keeping the reason.
    pub fn fail_check(&mut self, reason: String) {
        self.correct = false;
        self.notes.push(format!("correctness: FAILED: {reason}"));
    }

    /// The result line over `catalogue`: every metric must be present and
    /// finite, and no other metric may be.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Nearest-rank percentile `q` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_requires_the_whole_catalogue() {
        let mut o = Outcome::default();
        o.set("a", 1.5);
        assert!(o.result_json(&[("a", "ms"), ("b", "s")]).is_err());
        o.set("b", 2.0);
        let line = o.result_json(&[("a", "ms"), ("b", "s")]).unwrap();
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        o.set("c", f64::NAN);
        assert!(o.result_json(&[("a", "ms"), ("b", "s")]).is_err());
    }
}
