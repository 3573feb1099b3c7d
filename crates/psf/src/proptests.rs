//! Property-style tests of the PSF substrate (module kept separate from
//! the unit tests for readability).
//!
//! Hand-rolled deterministic property loops (seeded `simrng`) instead of
//! `proptest`, so the workspace tests run with no registry access.

#![cfg(test)]

use simrng::Rng64;

use crate::gaussian::GaussianPsf;
use crate::integrated::{IntegratedGaussianPsf, PsfModel};
use crate::lut::{LookupTable, LutParams};
use crate::roi::Roi;
use crate::smear::SmearedGaussianPsf;

/// The Gaussian PSF is positive, bounded by its peak, and radially
/// monotone for any sigma and offset.
#[test]
fn gaussian_bounded_and_monotone() {
    let mut rng = Rng64::new(0x6A);
    for _ in 0..256 {
        let sigma = rng.range_f32(0.2, 10.0);
        let dx = rng.range_f32(-30.0, 30.0);
        let dy = rng.range_f32(-30.0, 30.0);
        let psf = GaussianPsf::new(sigma);
        let v = psf.eval(dx, dy, 0.0, 0.0);
        assert!(v >= 0.0);
        assert!(v <= psf.peak() * (1.0 + 1e-6));
        // Moving radially outward cannot increase the value.
        let farther = psf.eval(dx * 1.5, dy * 1.5, 0.0, 0.0);
        assert!(farther <= v * (1.0 + 1e-6));
    }
}

/// Encircled energy is a CDF: monotone from 0 toward 1.
#[test]
fn encircled_energy_is_cdf() {
    let mut rng = Rng64::new(0xE7);
    for _ in 0..256 {
        let sigma = rng.range_f32(0.2, 10.0);
        let r = rng.range_f32(0.0, 100.0);
        let psf = GaussianPsf::new(sigma);
        let e = psf.encircled_energy(r);
        assert!((0.0..=1.0).contains(&e));
        assert!(psf.encircled_energy(r + 1.0) >= e);
    }
}

/// The pixel-integrated PSF never exceeds 1 per pixel and sums to ≤ 1
/// over any finite region.
#[test]
fn integrated_psf_is_a_measure() {
    let mut rng = Rng64::new(0x17);
    for _ in 0..32 {
        let sigma = rng.range_f32(0.2, 5.0);
        let cx = rng.range_f32(-0.5, 0.5);
        let cy = rng.range_f32(-0.5, 0.5);
        let psf = IntegratedGaussianPsf::new(sigma);
        let mut sum = 0.0f64;
        for y in -15..=15 {
            for x in -15..=15 {
                let v = psf.eval(x as f32, y as f32, cx, cy);
                assert!((0.0..=1.0).contains(&v));
                sum += v as f64;
            }
        }
        assert!(sum <= 1.0 + 1e-4);
    }
}

/// ROI clipping never yields pixels outside the image, and the clipped
/// area never exceeds the full ROI area.
#[test]
fn roi_clip_invariants() {
    let mut rng = Rng64::new(0x401);
    for _ in 0..256 {
        let side = rng.range_usize(1, 33);
        let x = rng.range_f32(-100.0, 1100.0);
        let y = rng.range_f32(-100.0, 1100.0);
        let roi = Roi::new(side);
        if let Some(clip) = roi.clip(x, y, 1024, 1024) {
            assert!(clip.area() >= 1);
            assert!(clip.area() <= roi.area());
            for (px, py, i, j) in clip.pixels() {
                assert!(px < 1024 && py < 1024);
                assert!(i < side && j < side);
            }
        }
    }
}

/// An interior star's clip is exactly the full ROI.
#[test]
fn interior_clip_is_full() {
    for side in 1..33 {
        let roi = Roi::new(side);
        let clip = roi.clip(512.0, 512.0, 1024, 1024).unwrap();
        assert_eq!(clip.area(), roi.area());
    }
}

/// LUT fetches agree with direct evaluation at bin centres for random
/// geometry parameters.
#[test]
fn lut_matches_direct_at_bin_centres() {
    let mut rng = Rng64::new(0x107);
    for _ in 0..24 {
        let sigma = rng.range_f32(0.5, 5.0);
        let side = rng.range_usize(2, 16);
        let bins = rng.range_usize(2, 64);
        let probe_bin = rng.range_usize(0, 64) % bins;
        let roi = Roi::new(side);
        let psf = PsfModel::point(sigma);
        let lut = LookupTable::build(
            &psf,
            1000.0,
            roi,
            LutParams {
                mag_bins: bins,
                phases: 1,
                mag_range: (0.0, 15.0),
            },
            None,
        )
        .unwrap();
        let m = lut.brightness().bin_centre(probe_bin);
        let star = starfield::Star::new(100.0, 100.0, m);
        let g = star.brightness(1000.0);
        let margin = roi.margin() as f32;
        for j in 0..side {
            for i in 0..side {
                let direct = g * psf.eval(i as f32 - margin, j as f32 - margin, 0.0, 0.0);
                let fetched = lut.fetch(&star, i, j);
                assert!(
                    (direct - fetched).abs() <= 1e-5 * direct.max(1e-10),
                    "({i},{j}): {direct} vs {fetched}"
                );
            }
        }
    }
}

/// The smeared PSF conserves energy for any track. (σ ≥ 0.8: narrower
/// point-sampled Gaussians alias on the integer grid by ~1%, a property
/// of sampling, not of the smear.)
#[test]
fn smear_conserves_energy() {
    let mut rng = Rng64::new(0x53);
    for _ in 0..48 {
        let sigma = rng.range_f32(0.8, 2.5);
        let length = rng.range_f32(0.0, 10.0);
        let angle = rng.range_f32(0.0, std::f32::consts::TAU);
        let psf = SmearedGaussianPsf::new(sigma, length, angle);
        let half = (4.0 * sigma + length) as i32 + 2;
        let mut sum = 0.0f64;
        for y in -half..=half {
            for x in -half..=half {
                sum += psf.eval(x as f32, y as f32, 0.0, 0.0) as f64;
            }
        }
        assert!((sum - 1.0).abs() < 5e-3, "integral {sum}");
    }
}
