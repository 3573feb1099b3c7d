//! Microbenches of the virtual-GPU kernel path: star-centric vs adaptive
//! kernel execution, and the lookup-table build.
//!
//! These measure *host wall time* of the functional simulation (how fast
//! the virtual GPU itself runs), complementing the harness's modeled GPU
//! times.

include!("common/harness.rs");

use gpusim::DeviceSpec;
use starfield::FieldGenerator;
use starsim_core::{build_lut, AdaptiveSimulator, ParallelSimulator, SimConfig, Simulator};

fn bench_star_centric_kernel() {
    for &stars in &[256usize, 1024, 4096] {
        let catalog = FieldGenerator::new(512, 512).generate(stars, 1);
        let config = SimConfig::new(512, 512, 10);
        let sim = ParallelSimulator::new();
        bench(&format!("star_centric_kernel/{stars}"), || {
            sim.simulate(&catalog, &config).unwrap()
        });
    }
}

fn bench_adaptive_kernel() {
    for &stars in &[256usize, 1024, 4096] {
        let catalog = FieldGenerator::new(512, 512).generate(stars, 1);
        let config = SimConfig::new(512, 512, 10);
        let sim = AdaptiveSimulator::new();
        bench(&format!("adaptive_kernel/{stars}"), || {
            sim.simulate(&catalog, &config).unwrap()
        });
    }
}

fn bench_lut_build() {
    for &(bins, roi) in &[(128usize, 10usize), (512, 10), (128, 32)] {
        let mut config = SimConfig::new(64, 64, roi);
        config.lut_mag_bins = bins;
        let device = DeviceSpec::gtx480();
        bench(&format!("lut_build/{bins}bins_roi{roi}"), || {
            build_lut(&config, &device).unwrap()
        });
    }
}

fn main() {
    bench_star_centric_kernel();
    bench_adaptive_kernel();
    bench_lut_build();
}
