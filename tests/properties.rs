//! Cross-crate property-style tests of the simulator invariants.
//!
//! Hand-rolled deterministic property loops (seeded `simrng`) instead of
//! `proptest`, so the workspace tests run with no registry access.

use simrng::Rng64;
use starsim::image::diff::images_close;
use starsim::prelude::*;

/// A star strictly interior to a 64×64 image (the whole ROI of side ≤ 12
/// stays in-bounds).
fn interior_star(rng: &mut Rng64) -> Star {
    Star::new(
        rng.range_f32(8.0, 56.0),
        rng.range_f32(8.0, 56.0),
        rng.range_f32(0.0, 15.0),
    )
}

fn interior_stars(rng: &mut Rng64, lo: usize, hi: usize) -> Vec<Star> {
    let n = rng.range_usize(lo, hi);
    (0..n).map(|_| interior_star(rng)).collect()
}

fn small_cfg(roi: usize) -> SimConfig {
    SimConfig::new(64, 64, roi)
}

/// The parallel simulator agrees with the sequential one on arbitrary
/// interior fields.
#[test]
fn parallel_equals_sequential() {
    let mut rng = Rng64::new(0x11);
    for _ in 0..24 {
        let cat = StarCatalog::from_stars(interior_stars(&mut rng, 0, 40));
        let cfg = small_cfg(10);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(images_close(&seq.image, &par.image, 1e-4, 1e-4));
    }
}

/// An interior star deposits its full ROI flux: the image total equals
/// the model's per-star ROI flux sum, regardless of star positions.
#[test]
fn flux_conservation() {
    let mut rng = Rng64::new(0x12);
    for _ in 0..24 {
        let cat = StarCatalog::from_stars(interior_stars(&mut rng, 1, 30));
        let cfg = small_cfg(8);
        let model = cfg.intensity_model();
        let expect: f64 = cat.stars().iter().map(|s| model.roi_flux(s)).sum();
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let total: f64 = seq.image.data().iter().map(|&v| v as f64).sum();
        assert!(
            (total - expect).abs() <= 1e-4 * expect.max(1e-12),
            "total {total} vs expected {expect}"
        );
    }
}

/// Simulation is additive: rendering A∪B equals rendering A plus
/// rendering B, pixel-wise (the intensity model is a linear scatter).
#[test]
fn superposition() {
    let mut rng = Rng64::new(0x13);
    for _ in 0..24 {
        let a = interior_stars(&mut rng, 1, 15);
        let b = interior_stars(&mut rng, 1, 15);
        let cfg = small_cfg(10);
        let seq = SequentialSimulator::new();
        let ra = seq
            .simulate(&StarCatalog::from_stars(a.clone()), &cfg)
            .unwrap();
        let rb = seq
            .simulate(&StarCatalog::from_stars(b.clone()), &cfg)
            .unwrap();
        let mut union = a;
        union.extend(b);
        let ru = seq.simulate(&StarCatalog::from_stars(union), &cfg).unwrap();
        let mut summed = ra.image.clone();
        for (dst, src) in summed.data_mut().iter_mut().zip(rb.image.data()) {
            *dst += src;
        }
        assert!(images_close(&ru.image, &summed, 1e-4, 1e-4));
    }
}

/// Star order never changes the sequential image beyond f32 rounding.
#[test]
fn permutation_invariance() {
    let mut rng = Rng64::new(0x14);
    for _ in 0..24 {
        let stars = interior_stars(&mut rng, 2, 25);
        let cfg = small_cfg(10);
        let seq = SequentialSimulator::new();
        let fwd = seq
            .simulate(&StarCatalog::from_stars(stars.clone()), &cfg)
            .unwrap();
        let mut rev = stars;
        rev.reverse();
        let bwd = seq.simulate(&StarCatalog::from_stars(rev), &cfg).unwrap();
        assert!(images_close(&fwd.image, &bwd.image, 1e-4, 1e-4));
    }
}

/// Image pixels are always non-negative and finite.
#[test]
fn pixels_non_negative_and_finite() {
    let mut rng = Rng64::new(0x15);
    for _ in 0..24 {
        let cat = StarCatalog::from_stars(interior_stars(&mut rng, 0, 30));
        let roi = rng.range_usize(1, 14);
        let cfg = small_cfg(roi);
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(par.image.data().iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}

/// The adaptive image differs from sequential by at most the lookup
/// table's worst-case magnitude-quantization factor, for pixel-centred
/// stars.
#[test]
fn adaptive_quantization_bound() {
    let mut rng = Rng64::new(0x16);
    let cfg = small_cfg(10);
    let lut = starsim::sim::build_lut(&cfg, &DeviceSpec::gtx480()).unwrap();
    let bound = lut.brightness().max_relative_error() * 1.5;
    for _ in 0..8 {
        let seed = rng.range_u64(0, 1000);
        let cat = FieldGenerator::new(64, 64)
            .positions(PositionModel::UniformPixelCentred)
            .generate(30, seed);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let d = starsim::image::diff::compare(&seq.image, &ada.image, 0.0);
        assert!(d.max_rel <= bound, "seed {seed}: {} > {bound}", d.max_rel);
    }
}

/// Selection is total and stable: for any workload, `choose` returns
/// one of the three simulators, and larger workloads never move the
/// choice *back* toward sequential.
#[test]
fn selection_is_monotone() {
    let mut rng = Rng64::new(0x17);
    for _ in 0..256 {
        let stars = rng.range_usize(1, 1_000_000);
        let roi = rng.range_usize(1, 33);
        let p = InflectionPoint::default();
        let c = p.choose(stars, roi);
        // Doubling the stars can only move Sequential→Parallel→Adaptive.
        let c2 = p.choose(stars * 2, roi);
        let rank = |c: Choice| match c {
            Choice::Sequential => 0,
            Choice::Parallel => 1,
            Choice::Adaptive => 2,
        };
        assert!(rank(c2) >= rank(c), "{c:?} -> {c2:?} at {stars}x{roi}");
    }
}
