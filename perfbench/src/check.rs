//! Correctness checks. None uses a golden digest: each compares renders
//! the program must agree on, so every check holds on any core count.

use starsim::sim::{FrameTiming, SimulationReport};

/// Max-abs pixel tolerance of a batched frame against the reference
/// executor, as a share of the reference frame's peak. The executors
/// add the same f32 deposits in different orders (the order depends on
/// the worker count), so pixels may differ in the last bits.
pub const PIXEL_TOL_REL: f32 = 1e-5;

/// dense-field: a frame from the pipelined loop against the same frame
/// re-rendered by `ExecMode::Reference`. Pixels must agree within
/// [`PIXEL_TOL_REL`]; counters and modeled time must be bit-equal.
/// Returns the max-abs pixel difference.
pub fn sampled_frame(
    pixels: &[f32],
    timing: &FrameTiming,
    reference: &SimulationReport,
) -> Result<f32, String> {
    let expected = reference.image.data();
    if pixels.len() != expected.len() {
        return Err(format!(
            "frame has {} pixels, the reference {}",
            pixels.len(),
            expected.len()
        ));
    }
    if let Some(i) = pixels.iter().position(|p| !p.is_finite()) {
        return Err(format!("pixel {i} is {}", pixels[i]));
    }
    let peak = expected.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let max_abs = pixels
        .iter()
        .zip(expected)
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    if max_abs > PIXEL_TOL_REL * peak.max(1.0) {
        return Err(format!(
            "pixels differ from the reference executor by {max_abs} (peak {peak})"
        ));
    }
    let ref_counters = reference
        .profile
        .kernels
        .first()
        .ok_or("reference frame launched no kernel")?
        .counters;
    if timing.counters != ref_counters {
        return Err("device counters differ from the reference executor".into());
    }
    if timing.app_time_s.to_bits() != reference.app_time_s.to_bits() {
        return Err(format!(
            "modeled time {} s differs from the reference executor's {} s",
            timing.app_time_s, reference.app_time_s
        ));
    }
    Ok(max_abs)
}

/// wide-sky: two sessions on one spec rendering the same whole burst
/// must agree, and a burst split in two must end on the same cumulative
/// digest. `blank` is the digest of all-zero frames, which no sky renders.
pub fn wide_digests(whole_a: u64, whole_b: u64, split: u64, blank: u64) -> Result<(), String> {
    if whole_a != whole_b {
        return Err(format!(
            "two sessions on one spec disagree: {whole_a:016x} vs {whole_b:016x}"
        ));
    }
    if split != whole_a {
        return Err(format!(
            "split burst ends on {split:016x}, whole burst on {whole_a:016x}"
        ));
    }
    if whole_a == blank {
        return Err("frames are blank".into());
    }
    Ok(())
}

/// session-churn: every render of a spec must repeat its first render.
pub fn repeat_digest(spec: usize, first: u64, got: u64) -> Result<(), String> {
    if first == got {
        Ok(())
    } else {
        Err(format!(
            "spec {spec} rendered {got:016x}, its first render {first:016x}"
        ))
    }
}
