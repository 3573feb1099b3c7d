//! Equivalence of the virtual-GPU executors.
//!
//! The batched executor (`ExecMode::Batched`) replaces per-thread
//! interpretation with a counter pass (whole-block analytic accounting)
//! and a banded deposit pass that adds every block in index order. Its
//! contract: for any launch and any host worker count,
//!
//! * **counters** — and therefore every modeled GPU time — are *equal* to
//!   the reference and sanitized executors';
//! * the **image** is *bit-identical* to theirs: every executor adds each
//!   pixel's values in block order, so there is one image per launch —
//!   for the parallel simulator, the sequential simulator's.
//!
//! This suite sweeps both GPU simulators over a grid of star counts, ROI
//! sides and image sizes chosen to hit every fast-path branch: padding
//! blocks (empty catalog), single-thread blocks (ROI 1), partial warps
//! (ROI 3/5/10/19), full warps (ROI 8/16), maximal 1024-thread blocks
//! (ROI 32), and edge-clipped ROIs (stars near the borders are generated
//! by the field covering the whole image).

use gpusim::{Counters, ExecMode, VirtualGpu};
use starfield::{FieldGenerator, StarCatalog};
use starsim_core::{
    AdaptiveSimulator, ParallelSimulator, SequentialSimulator, SimConfig, SimulationReport,
    Simulator,
};

/// Worker counts every executor is checked at: one, a few, and one per
/// SM of the GTX480.
const WORKER_COUNTS: [usize; 6] = [1, 2, 3, 4, 7, 15];

/// The executors under test.
const MODES: [ExecMode; 3] = [ExecMode::Reference, ExecMode::Batched, ExecMode::Sanitized];

/// The shapes under test: (stars, roi_side, width, height, lut_phases).
fn shape_grid() -> Vec<(usize, usize, usize, usize, usize)> {
    vec![
        (0, 10, 32, 32, 1),   // empty catalog → one padding block
        (1, 1, 32, 32, 1),    // single-thread block
        (7, 5, 48, 32, 1),    // partial warp (25 threads), non-square image
        (50, 10, 64, 64, 1),  // the paper's ROI, partial tail warp
        (300, 10, 64, 64, 1), // more blocks than SMs
        (40, 16, 128, 96, 1), // full warps (256 threads = 8 warps)
        (60, 3, 40, 40, 1),   // two 16-texel LUT layers share one 128-B line
        (80, 8, 64, 64, 1),   // wide-sky's ROI
        (40, 19, 96, 80, 1),  // session-churn's largest ROI: Morton pitch 32
        (12, 32, 96, 96, 1),  // 1024-thread blocks, the block-size cap
        // 2,048 LUT layers: each SM's blocks touch about twice the lines
        // its 400-line texture cache holds, so layer walks miss into full
        // sets and evict lines earlier blocks fetched (hit ratio ~0.94).
        (2000, 10, 256, 256, 4),
    ]
}

fn catalog(stars: usize, w: usize, h: usize) -> StarCatalog {
    // Stars over the full frame: border stars exercise edge-clipped ROIs.
    FieldGenerator::new(w, h).generate(stars, 42)
}

fn run(
    sim_kind: &str,
    cat: &StarCatalog,
    cfg: &SimConfig,
    mode: ExecMode,
    workers: usize,
) -> SimulationReport {
    let gpu = VirtualGpu::gtx480().with_workers(workers);
    let mut cfg = cfg.clone();
    cfg.exec_mode = mode;
    match sim_kind {
        "parallel" => ParallelSimulator::on(gpu).simulate(cat, &cfg).unwrap(),
        "adaptive" => AdaptiveSimulator::on(gpu).simulate(cat, &cfg).unwrap(),
        other => panic!("unknown simulator {other}"),
    }
}

fn kernel_counters(r: &SimulationReport) -> Counters {
    r.profile.kernels[0].counters
}

fn image_bits(r: &SimulationReport) -> Vec<u32> {
    r.image.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn batched_equals_reference_bit_for_bit() {
    for sim_kind in ["parallel", "adaptive"] {
        for &(stars, roi, w, h, phases) in &shape_grid() {
            let cat = catalog(stars, w, h);
            let cfg = SimConfig {
                lut_phases: phases,
                ..SimConfig::new(w, h, roi)
            };
            let shape = format!("{sim_kind} stars={stars} roi={roi} {w}x{h} phases={phases}");
            let reference = run(sim_kind, &cat, &cfg, ExecMode::Reference, 1);
            // One thread per worker count: the serial executors take most
            // of the time, and their runs are independent.
            std::thread::scope(|scope| {
                for workers in WORKER_COUNTS {
                    let (cat, cfg, reference, shape) = (&cat, &cfg, &reference, &shape);
                    scope.spawn(move || {
                        for mode in MODES {
                            let label = format!("{shape} {mode:?} workers={workers}");
                            let other = run(sim_kind, cat, cfg, mode, workers);
                            assert_same_launch(reference, &other, &label);
                            assert!(
                                image_bits(reference) == image_bits(&other),
                                "image bits diverge: {label}"
                            );
                        }
                    });
                }
            });
        }
    }
}

/// Counters, kernel time and app time of `other` equal `reference`'s:
/// modeled times are pure functions of the counters, so they must agree
/// to the last bit too.
fn assert_same_launch(reference: &SimulationReport, other: &SimulationReport, label: &str) {
    assert_eq!(
        kernel_counters(reference),
        kernel_counters(other),
        "counters diverge: {label}"
    );
    assert_eq!(
        reference.profile.kernels[0].time_s, other.profile.kernels[0].time_s,
        "kernel time diverges: {label}"
    );
    assert_eq!(
        reference.app_time_s, other.app_time_s,
        "app time diverges: {label}"
    );
}

/// The parallel simulator adds the sequential simulator's `g·μ`
/// values in the sequential simulator's star order: one image, bit for
/// bit, on every shape of the grid.
#[test]
fn scalar_parallel_equals_sequential_bit_for_bit() {
    for &(stars, roi, w, h, _) in &shape_grid() {
        let cat = catalog(stars, w, h);
        let cfg = SimConfig::new(w, h, roi);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::on(VirtualGpu::gtx480())
            .simulate(&cat, &cfg)
            .unwrap();
        assert!(
            image_bits(&seq) == image_bits(&par),
            "stars={stars} roi={roi} {w}x{h}: parallel differs from sequential"
        );
    }
}

#[test]
fn batched_counters_independent_of_workers() {
    for sim_kind in ["parallel", "adaptive"] {
        let cat = catalog(120, 64, 64);
        let cfg = SimConfig::new(64, 64, 10);
        let one = run(sim_kind, &cat, &cfg, ExecMode::Batched, 1);
        for workers in [2, 4, 7] {
            let many = run(sim_kind, &cat, &cfg, ExecMode::Batched, workers);
            assert_eq!(
                kernel_counters(&one),
                kernel_counters(&many),
                "{sim_kind}: counters must not depend on workers={workers}"
            );
            assert_eq!(
                one.profile.kernels[0].time_s, many.profile.kernels[0].time_s,
                "{sim_kind}: modeled time must not depend on workers={workers}"
            );
        }
    }
}

#[test]
fn batched_image_deterministic_per_worker_count() {
    for sim_kind in ["parallel", "adaptive"] {
        let cat = catalog(200, 96, 64);
        let cfg = SimConfig::new(96, 64, 10);
        for workers in [1, 4] {
            let a = run(sim_kind, &cat, &cfg, ExecMode::Batched, workers);
            let b = run(sim_kind, &cat, &cfg, ExecMode::Batched, workers);
            assert_eq!(
                image_bits(&a),
                image_bits(&b),
                "{sim_kind}: repeated runs at workers={workers} must be bitwise identical"
            );
        }
    }
}

/// DESIGN §8's claim: the deposit pass adds every block in index order,
/// so the batched image is the reference image at every worker count. The
/// frame is dense (every pixel under several ROIs) and its 328 rows cut
/// into bands at every lane count, so ROIs straddle band edges and get
/// split between bands; a value lost or added twice at a band edge flips
/// bits.
#[test]
fn batched_image_bit_identical_across_worker_counts() {
    for sim_kind in ["parallel", "adaptive"] {
        let (w, h) = (200, 328);
        let cat = catalog(4000, w, h);
        let cfg = SimConfig::new(w, h, 10);
        let reference = run(sim_kind, &cat, &cfg, ExecMode::Reference, 2);
        let first = run(sim_kind, &cat, &cfg, ExecMode::Batched, 2);
        assert!(
            image_bits(&reference) == image_bits(&first),
            "{sim_kind}: the banded deposit differs from the reference image"
        );
        for workers in [2, 3, 4, 7, 15] {
            let other = run(sim_kind, &cat, &cfg, ExecMode::Batched, workers);
            assert!(
                image_bits(&first) == image_bits(&other),
                "{sim_kind}: workers=2 and workers={workers} images differ"
            );
            assert_eq!(kernel_counters(&first), kernel_counters(&other));
        }
    }
}

#[test]
fn multi_worker_batched_image_equals_reference() {
    for sim_kind in ["parallel", "adaptive"] {
        let cat = catalog(200, 96, 64);
        let cfg = SimConfig::new(96, 64, 10);
        let reference = run(sim_kind, &cat, &cfg, ExecMode::Reference, 1);
        let batched = run(sim_kind, &cat, &cfg, ExecMode::Batched, 4);
        assert!(
            image_bits(&reference) == image_bits(&batched),
            "{sim_kind}: multi-worker batched image differs from the reference"
        );
    }
}
