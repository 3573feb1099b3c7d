//! Stream-pipelined transfers — the transmission optimization the paper
//! points at ("The transmission overhead ... should be eliminated as low as
//! possible by applying some CUDA transmission optimization strategy,
//! which has been described a lot in \[10\]", §III-B.3).
//!
//! With CUDA streams the star array is uploaded in chunks and chunk `k`'s
//! kernel runs while chunk `k+1` uploads. The output image stays resident
//! for the whole launch sequence, so only the star upload and the kernel
//! pipeline against each other; the image upload prefixes and the download
//! suffixes the pipeline. The standard software-pipeline bound gives
//!
//! ```text
//! T(n) = T_img_up + (U + K)/n + max(U, K)·(n−1)/n + T_down
//! ```
//!
//! with `U` the total star-upload time and `K` the total kernel time.
//! As `n → ∞` this tends to `T_img_up + max(U, K) + T_down`: the smaller of
//! the two phases disappears behind the larger.

use crate::report::SimulationReport;

/// Breakdown of a streamed execution estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedEstimate {
    /// Number of streams (chunks).
    pub streams: usize,
    /// Estimated application time with overlap, seconds.
    pub app_time_s: f64,
    /// The non-overlappable prefix/suffix (image upload + download), seconds.
    pub serial_s: f64,
    /// Time saved versus the unpipelined run, seconds.
    pub saved_s: f64,
}

/// Estimates the streamed application time of a parallel-simulator report.
///
/// `report` must come from [`crate::ParallelSimulator`] or
/// [`crate::AdaptiveSimulator`] (one kernel, one transmission overhead
/// item); other profiles return the unmodified app time.
///
/// # Panics
/// Panics when `streams == 0`.
pub fn streamed_estimate(report: &SimulationReport, streams: usize) -> StreamedEstimate {
    assert!(streams > 0, "need at least one stream");
    let kernel: f64 = report.kernel_time_s();
    let transmission = report.profile.overhead_named("CPU-GPU transmission");
    let other_overhead = report.non_kernel_time_s() - transmission;

    if kernel <= 0.0 || transmission <= 0.0 {
        return StreamedEstimate {
            streams,
            app_time_s: report.app_time_s,
            serial_s: report.app_time_s,
            saved_s: 0.0,
        };
    }

    // Split the transmission item: the image upload and download are
    // proportional to the image size and do not chunk; the star upload
    // chunks. We reconstruct the pieces from the report's geometry.
    let image_bytes = (report.image.width() * report.image.height() * 4) as f64;
    let star_bytes = (report.stars * std::mem::size_of::<crate::DeviceStar>()) as f64;
    let total_bytes = 2.0 * image_bytes + star_bytes;
    let star_upload = transmission * (star_bytes / total_bytes);
    let serial_transfer = transmission - star_upload;

    let n = streams as f64;
    let u = star_upload;
    let k = kernel;
    let pipelined = (u + k) / n + u.max(k) * (n - 1.0) / n;
    let app = serial_transfer + other_overhead + pipelined;
    StreamedEstimate {
        streams,
        app_time_s: app,
        serial_s: serial_transfer + other_overhead,
        saved_s: (report.app_time_s - app).max(0.0),
    }
}

/// Models a frame sequence as a software pipeline over whole frames
/// instead of upload chunks: frame `i+1`'s star generation + upload
/// (total `upload_s` across the burst) overlaps frame `i`'s kernel (total
/// `kernel_s`), while the per-frame image upload + download (`serial_s`)
/// never overlaps. The same bound as [`streamed_estimate`] applies with
/// `n = frames` pipeline stages in flight.
///
/// Degenerate phases (either total ≤ 0) fall back to the unpipelined sum so
/// empty bursts and zero-star frames report zero savings.
///
/// # Panics
/// Panics when `frames == 0`.
pub fn frame_overlap_estimate(
    frames: usize,
    upload_s: f64,
    kernel_s: f64,
    serial_s: f64,
) -> StreamedEstimate {
    assert!(frames > 0, "need at least one frame");
    let n = frames as f64;
    let u = upload_s;
    let k = kernel_s;
    let pipelined = if u <= 0.0 || k <= 0.0 {
        u + k
    } else {
        (u + k) / n + u.max(k) * (n - 1.0) / n
    };
    let app = serial_s + pipelined;
    StreamedEstimate {
        streams: frames,
        app_time_s: app,
        serial_s,
        saved_s: (serial_s + u + k - app).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelSimulator, SimConfig, Simulator};
    use starfield::FieldGenerator;

    fn report(stars: usize) -> SimulationReport {
        let cat = FieldGenerator::new(256, 256).generate(stars, 3);
        ParallelSimulator::new()
            .simulate(&cat, &SimConfig::new(256, 256, 10))
            .unwrap()
    }

    #[test]
    fn one_stream_matches_unpipelined() {
        let r = report(2000);
        let e = streamed_estimate(&r, 1);
        assert!(
            (e.app_time_s - r.app_time_s).abs() < 1e-9,
            "1 stream must not change the estimate: {} vs {}",
            e.app_time_s,
            r.app_time_s
        );
        assert_eq!(e.saved_s, 0.0);
    }

    #[test]
    fn more_streams_never_hurt() {
        let r = report(4000);
        let mut prev = f64::INFINITY;
        for n in 1..=16 {
            let e = streamed_estimate(&r, n);
            assert!(
                e.app_time_s <= prev + 1e-12,
                "stream count {n} regressed: {} > {prev}",
                e.app_time_s
            );
            prev = e.app_time_s;
        }
    }

    #[test]
    fn asymptote_is_serial_plus_max_phase() {
        let r = report(4000);
        let e = streamed_estimate(&r, 1000);
        let transmission = r.profile.overhead_named("CPU-GPU transmission");
        let star_frac =
            (r.stars * 12) as f64 / (2.0 * (256.0 * 256.0 * 4.0) + (r.stars * 12) as f64);
        let u = transmission * star_frac;
        let expect = (transmission - u) + u.max(r.kernel_time_s());
        assert!(
            (e.app_time_s - expect).abs() < expect * 0.01,
            "asymptote {} vs expected {expect}",
            e.app_time_s
        );
    }

    #[test]
    fn savings_are_bounded_by_the_smaller_phase() {
        let r = report(4000);
        let e = streamed_estimate(&r, 8);
        let transmission = r.profile.overhead_named("CPU-GPU transmission");
        assert!(e.saved_s <= transmission + 1e-12);
        assert!(e.saved_s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        let r = report(100);
        let _ = streamed_estimate(&r, 0);
    }

    #[test]
    fn frame_overlap_single_frame_is_the_plain_sum() {
        let e = frame_overlap_estimate(1, 0.2, 0.5, 0.1);
        assert!((e.app_time_s - 0.8).abs() < 1e-12);
        assert!(e.saved_s.abs() < 1e-12, "one frame cannot overlap");
        assert_eq!(e.streams, 1);
    }

    #[test]
    fn frame_overlap_hides_the_smaller_phase_asymptotically() {
        let e = frame_overlap_estimate(10_000, 0.2, 0.5, 0.1);
        let expect = 0.1 + 0.5; // serial + max(U, K)
        assert!(
            (e.app_time_s - expect).abs() < 1e-3,
            "asymptote {} vs {expect}",
            e.app_time_s
        );
        assert!((e.saved_s - 0.2).abs() < 1e-3, "savings ≈ min(U, K)");
    }

    #[test]
    fn frame_overlap_more_frames_never_hurt_and_degenerates_safely() {
        let mut prev = f64::INFINITY;
        for n in 1..=32 {
            let e = frame_overlap_estimate(n, 0.3, 0.4, 0.05);
            assert!(e.app_time_s <= prev + 1e-12);
            assert!(e.saved_s >= 0.0);
            prev = e.app_time_s;
        }
        let degenerate = frame_overlap_estimate(8, 0.0, 0.4, 0.05);
        assert!((degenerate.app_time_s - 0.45).abs() < 1e-15);
        assert_eq!(degenerate.saved_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn frame_overlap_zero_frames_rejected() {
        let _ = frame_overlap_estimate(0, 0.1, 0.1, 0.1);
    }
}
