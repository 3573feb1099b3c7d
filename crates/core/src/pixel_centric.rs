//! The pixel-centric decomposition the paper *rejects* (§III-B.1, Fig. 3a)
//! — implemented as an ablation so the rejection is quantitative.
//!
//! One thread per image pixel; each thread scans the whole star array and
//! accumulates the contributions of stars whose ROI covers its pixel. "This
//! would be a poor choice. As each thread has to identify all stars to
//! select which ROI covers this pixel, and it will lead to many divergences
//! in the warp execution."
//!
//! The kernel is O(pixels × stars), so use it on reduced problem sizes —
//! the ablation bench runs 256² images. Its one structural advantage: no
//! atomics (each pixel is owned by exactly one thread).

use std::time::Instant;

use gpusim::memory::global::{GlobalAtomicF32, GlobalBuffer};
use gpusim::{AppProfile, Dim3, FlopClass, Kernel, LaunchConfig, ThreadCtx, VirtualGpu};
use psf::integrated::PsfModel;
use psf::roi::Roi;
use starfield::StarCatalog;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::star_record::{render_once, DeviceStar};
use crate::Simulator;

/// Image tile side per thread block.
const TILE: u32 = 16;

/// The pixel-centric kernel (paper Fig. 3a).
pub struct PixelCentricKernel<'a> {
    /// Device star array.
    pub stars: &'a GlobalBuffer<DeviceStar>,
    /// Device output image.
    pub image: &'a GlobalAtomicF32,
    /// Star count.
    pub star_count: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// ROI geometry (stars outside this radius are skipped).
    pub roi: Roi,
    /// PSF evaluation.
    pub psf: PsfModel,
    /// Brightness factor.
    pub a_factor: f32,
}

impl<'a> PixelCentricKernel<'a> {
    /// The kernel every pixel-centric launch runs — over the first
    /// `star_count` stars of `stars` into `image` — and its launch shape:
    /// one thread per pixel in `TILE × TILE` blocks.
    pub(crate) fn build(
        config: &SimConfig,
        stars: &'a GlobalBuffer<DeviceStar>,
        star_count: usize,
        image: &'a GlobalAtomicF32,
    ) -> (Self, LaunchConfig) {
        let kernel = PixelCentricKernel {
            stars,
            image,
            star_count,
            width: config.width,
            height: config.height,
            roi: Roi::new(config.roi_side),
            psf: config.psf_model(),
            a_factor: config.a_factor,
        };
        let grid = Dim3::d2(
            (config.width as u32).div_ceil(TILE),
            (config.height as u32).div_ceil(TILE),
        );
        (kernel, LaunchConfig::new(grid, Dim3::d2(TILE, TILE)))
    }
}

impl Kernel for PixelCentricKernel<'_> {
    fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
        let px = (ctx.block_idx.x * TILE + ctx.thread_idx.x) as i64;
        let py = (ctx.block_idx.y * TILE + ctx.thread_idx.y) as i64;
        if !ctx.branch(px < self.width as i64 && py < self.height as i64) {
            ctx.exit();
            return;
        }

        let mut acc = 0.0f32;
        for s in 0..self.star_count {
            // Every thread walks the whole star array (same address across
            // the warp ⇒ broadcast-coalesced, but the volume is huge).
            let star = ctx.global_read(self.stars, s);
            // ROI membership test: this is the per-thread data-dependent
            // branch that makes warps diverge.
            let (x0, y0) = self.roi.origin(star.x, star.y);
            let side = self.roi.side() as i64;
            let covered = px >= x0 && px < x0 + side && py >= y0 && py < y0 + side;
            ctx.flops(FlopClass::Add, 2);
            if ctx.branch(covered) {
                let g = starfield::magnitude::brightness(star.mag, self.a_factor);
                let mu = self.psf.eval(px as f32, py as f32, star.x, star.y);
                // powf + expf: two software transcendental sequences.
                ctx.flops(FlopClass::Special, 16);
                ctx.flops(FlopClass::Fma, 2);
                ctx.flops(FlopClass::Mul, 3);
                acc += mu * g;
                ctx.flops(FlopClass::Add, 1);
            }
        }
        // One uncontended write per pixel (no atomics needed): model as an
        // atomic-free global store via atomic_add on a zeroed image.
        if ctx.branch(acc != 0.0) {
            let idx = py as usize * self.width + px as usize;
            ctx.atomic_add_global(self.image, idx, acc);
        }
    }
}

/// The pixel-centric ablation simulator.
pub struct PixelCentricSimulator {
    gpu: VirtualGpu,
}

impl PixelCentricSimulator {
    /// Simulator on the paper's GTX480.
    pub fn new() -> Self {
        PixelCentricSimulator {
            gpu: VirtualGpu::gtx480(),
        }
    }

    /// Simulator on a caller-provided device.
    pub fn on(gpu: VirtualGpu) -> Self {
        PixelCentricSimulator { gpu }
    }
}

impl Default for PixelCentricSimulator {
    fn default() -> Self {
        PixelCentricSimulator::new()
    }
}

impl Simulator for PixelCentricSimulator {
    fn name(&self) -> &'static str {
        "pixel-centric"
    }

    fn simulate(
        &self,
        catalog: &StarCatalog,
        config: &SimConfig,
    ) -> Result<SimulationReport, SimError> {
        config.validate()?;
        let wall_start = Instant::now();
        let gpu = &self.gpu;
        let (image, kp, transfer_s) = render_once(gpu, config, catalog, |stars, image| {
            let (kernel, cfg) = PixelCentricKernel::build(config, stars, catalog.len(), image);
            Ok(gpu.launch_mode("pixel-centric", &kernel, cfg, config.exec_mode)?)
        })?;
        let mut profile = AppProfile::new();
        profile.kernels.push(kp);
        profile.push_overhead("CPU-GPU transmission", transfer_s);
        let app_time_s = profile.app_time();
        Ok(SimulationReport {
            simulator: self.name(),
            image,
            profile,
            app_time_s,
            wall_time_s: wall_start.elapsed().as_secs_f64(),
            stars: catalog.len(),
            roi_side: config.roi_side,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelSimulator;
    use crate::sequential::SequentialSimulator;
    use starfield::FieldGenerator;
    use starimage::diff::differing_pixels;

    fn tiny_config() -> SimConfig {
        SimConfig::new(64, 64, 10)
    }

    #[test]
    fn matches_sequential() {
        let cat = FieldGenerator::new(64, 64).generate(40, 5);
        let cfg = tiny_config();
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let pix = PixelCentricSimulator::new().simulate(&cat, &cfg).unwrap();
        assert_eq!(
            differing_pixels(&seq.image, &pix.image),
            0,
            "pixel-centric must compute the same image"
        );
    }

    #[test]
    fn diverges_far_more_than_star_centric() {
        // The quantitative version of the paper's Fig. 3 argument.
        let cat = FieldGenerator::new(64, 64).generate(40, 5);
        let cfg = tiny_config();
        let pix = PixelCentricSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        let pix_div = pix.profile.kernels[0].counters.divergent_branches;
        let par_div = par.profile.kernels[0].counters.divergent_branches;
        // Star-centric divergence is bounded by block count (thread-0
        // staging + image-edge clipping); pixel-centric diverges on every
        // ROI-membership test a warp straddles.
        assert!(
            pix_div > 3 * par_div.max(1),
            "pixel-centric divergence {pix_div} should dwarf star-centric {par_div}"
        );
    }

    #[test]
    fn reads_scale_with_pixels_times_stars() {
        let cat = FieldGenerator::new(64, 64).generate(10, 1);
        let cfg = tiny_config();
        let pix = PixelCentricSimulator::new().simulate(&cat, &cfg).unwrap();
        let c = &pix.profile.kernels[0].counters;
        // Each of the 4096 threads reads all 10 stars: the ideal is 10
        // requests per warp × 128 warps = 1280. Divergence on the covered
        // branch splits some warp reads into separate issues (the executor
        // aligns traces by position), so the realistic count sits between
        // the ideal and a 2× divergence-serialized bound.
        assert!(
            (1280..2560).contains(&c.global_requests),
            "requests {}",
            c.global_requests
        );
    }

    #[test]
    fn no_atomic_contention_by_construction() {
        let cat = FieldGenerator::new(64, 64).generate(40, 2);
        let pix = PixelCentricSimulator::new()
            .simulate(&cat, &tiny_config())
            .unwrap();
        assert_eq!(pix.profile.kernels[0].counters.atomic_conflicts, 0);
    }
}
