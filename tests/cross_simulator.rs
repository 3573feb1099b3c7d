//! Cross-simulator validation: every implementation must render the same
//! image as the sequential baseline (the paper's implicit correctness
//! criterion in §IV-C: disagreement means "there must be mistakes in
//! either simulator").

use starsim::image::diff::{compare, images_close};
use starsim::prelude::*;

fn config(size: usize, roi: usize) -> SimConfig {
    SimConfig::new(size, size, roi)
}

#[test]
fn parallel_matches_sequential_across_field_densities() {
    for (n, seed) in [(10usize, 1u64), (200, 2), (2000, 3)] {
        let cat = FieldGenerator::new(128, 128).generate(n, seed);
        let cfg = config(128, 10);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(
            images_close(&seq.image, &par.image, 1e-4, 1e-4),
            "{n} stars: parallel diverged from sequential"
        );
    }
}

#[test]
fn parallel_matches_sequential_across_roi_sides() {
    let cat = FieldGenerator::new(128, 128).generate(300, 5);
    for roi in [1usize, 2, 5, 10, 16, 25, 32] {
        let cfg = config(128, roi);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(
            images_close(&seq.image, &par.image, 1e-4, 1e-4),
            "ROI {roi}: parallel diverged from sequential"
        );
    }
}

#[test]
fn adaptive_error_is_bounded_by_lut_quantization() {
    let cat = FieldGenerator::new(128, 128)
        .positions(PositionModel::UniformPixelCentred)
        .generate(400, 7);
    let cfg = config(128, 10);
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
    let lut = starsim::sim::build_lut(&cfg, &DeviceSpec::gtx480()).unwrap();
    let bound = lut.brightness().max_relative_error() * 1.5;
    let d = compare(&seq.image, &ada.image, 0.0);
    assert!(
        d.max_rel <= bound,
        "adaptive error {} exceeds LUT bound {bound}",
        d.max_rel
    );
}

#[test]
fn pixel_centric_matches_sequential() {
    let cat = FieldGenerator::new(96, 96).generate(60, 11);
    let cfg = config(96, 10);
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let pix = PixelCentricSimulator::new().simulate(&cat, &cfg).unwrap();
    assert!(images_close(&seq.image, &pix.image, 1e-4, 1e-4));
}

#[test]
fn multi_gpu_matches_sequential() {
    let cat = FieldGenerator::new(128, 128).generate(500, 13);
    let cfg = config(128, 10);
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let mg = MultiGpuSimulator::new(3).simulate(&cat, &cfg).unwrap();
    assert!(images_close(&seq.image, &mg.image, 1e-4, 1e-4));
}

#[test]
fn all_simulators_conserve_total_flux() {
    // Interior stars with a generous ROI: every simulator must deposit the
    // same total energy (brightness × in-ROI PSF mass), star order and
    // parallel schedule notwithstanding.
    let stars: Vec<Star> = (0..50)
        .map(|i| {
            Star::new(
                30.0 + (i % 8) as f32 * 9.0,
                30.0 + (i / 8) as f32 * 10.0,
                2.0 + (i % 12) as f32,
            )
        })
        .collect();
    let cat = StarCatalog::from_stars(stars);
    let cfg = config(128, 14);
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
    let total = |img: &ImageF32| -> f64 { img.data().iter().map(|&v| v as f64).sum() };
    let ts = total(&seq.image);
    let tp = total(&par.image);
    assert!(
        ((ts - tp) / ts).abs() < 1e-5,
        "flux mismatch: sequential {ts} vs parallel {tp}"
    );
}

#[test]
fn integrated_psf_variant_agrees_between_simulators() {
    // The extension PSF must round-trip through the GPU path too.
    let cat = FieldGenerator::new(96, 96).generate(150, 17);
    let mut cfg = config(96, 10);
    cfg.psf = starsim::sim::PsfKind::Integrated;
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
    assert!(images_close(&seq.image, &par.image, 1e-4, 1e-4));
}

#[test]
fn moffat_and_smeared_psf_variants_agree_between_simulators() {
    let cat = FieldGenerator::new(96, 96).generate(120, 19);
    for psf in [
        starsim::sim::PsfKind::Moffat { beta: 2.5 },
        starsim::sim::PsfKind::Smeared {
            length: 4.0,
            angle: 0.6,
        },
    ] {
        let mut cfg = config(96, 12);
        cfg.psf = psf;
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(
            images_close(&seq.image, &par.image, 1e-4, 1e-4),
            "{psf:?} variant diverged between simulators"
        );
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        // The LUT path supports any PSF model too (it is just a table of
        // evaluations); quantization bound still applies.
        assert!(ada.image.data().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn deterministic_across_runs_and_workers() {
    let cat = FieldGenerator::new(96, 96).generate(200, 23);
    let cfg = config(96, 10);
    let a = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
    let b = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
    // Counter-level determinism is exact; pixel values agree to tolerance
    // (atomic accumulation order may differ between runs).
    assert_eq!(
        a.profile.kernels[0].counters, b.profile.kernels[0].counters,
        "counters must be deterministic"
    );
    assert!(images_close(&a.image, &b.image, 1e-6, 1e-6));
    assert_eq!(a.kernel_time_s(), b.kernel_time_s());
}
