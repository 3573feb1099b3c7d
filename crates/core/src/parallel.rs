//! The parallel simulator: the paper's star-centric CUDA kernel (§III-B,
//! Fig. 6) on the virtual GPU.
//!
//! Decomposition: one thread **block** per star, one **thread** per pixel
//! of the star's ROI (two levels of data parallelism, Fig. 4). The kernel
//! runs in two barrier-separated phases:
//!
//! 1. thread (0,0) loads the star record from global memory, computes its
//!    brightness, and stages brightness + position in shared memory
//!    (Fig. 6 step 5) — "the global memory access frequency will be reduced
//!    from all threads to one thread per block";
//! 2. after `__syncthreads()` (step 6), every thread reads the staged
//!    values (once, into registers — the Fig. 7 bank-conflict relief),
//!    derives its pixel coordinate, evaluates the Gauss PSF, and
//!    `atomicAdd`s the contribution into the global image (step 8).

use std::ops::Range;
use std::time::Instant;

use gpusim::memory::global::{GlobalAtomicF32, GlobalBuffer};
use gpusim::{
    AppProfile, BlockCtx, DeviceSpec, Dim3, FlopClass, Kernel, LaunchConfig, ThreadCtx, VirtualGpu,
};
use psf::integrated::PsfModel;
use psf::roi::Roi;
use starfield::StarCatalog;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::star_record::{render_once, DeviceStar};
use crate::Simulator;

/// Shared-memory layout of the kernel: `[brightness, posX, posY]`
/// (the paper's `__shared__ float shareMem[3]`).
const SMEM_WORDS: usize = 3;
const SMEM_BRIGHTNESS: usize = 0;
const SMEM_POS_X: usize = 1;
const SMEM_POS_Y: usize = 2;

/// The star-centric kernel (paper Fig. 6).
pub struct StarCentricKernel<'a> {
    /// Device star array.
    pub stars: &'a GlobalBuffer<DeviceStar>,
    /// Device output image.
    pub image: &'a GlobalAtomicF32,
    /// Number of valid stars (`starCount` guard of step 3).
    pub star_count: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// ROI geometry (side = blockDim.x = blockDim.y).
    pub roi: Roi,
    /// PSF evaluation.
    pub psf: PsfModel,
    /// Brightness proportionality factor.
    pub a_factor: f32,
}

impl<'a> StarCentricKernel<'a> {
    /// The kernel every star-centric launch runs — over the first
    /// `star_count` stars of `stars` into `image` — and its launch shape:
    /// one ROI-sized block per star with the 3-word shared-memory staging.
    pub(crate) fn build(
        config: &SimConfig,
        device: &DeviceSpec,
        stars: &'a GlobalBuffer<DeviceStar>,
        star_count: usize,
        image: &'a GlobalAtomicF32,
    ) -> (Self, LaunchConfig) {
        let kernel = StarCentricKernel {
            stars,
            image,
            star_count,
            width: config.width,
            height: config.height,
            roi: Roi::new(config.roi_side),
            psf: config.psf_model(),
            a_factor: config.a_factor,
        };
        let cfg = LaunchConfig::star_centric(star_count.max(1), config.roi_side, device)
            .with_shared_mem(SMEM_WORDS * 4);
        (kernel, cfg)
    }
}

impl Kernel for StarCentricKernel<'_> {
    fn phases(&self) -> usize {
        2
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) {
        // Step 3: grid round-up guard.
        let block_id = ctx.block_linear();
        if phase == 0 && !ctx.branch(block_id < self.star_count) {
            ctx.exit();
            return;
        }

        match phase {
            0 => {
                // Step 5: one designated thread computes and stages the
                // star's brightness and position.
                let first = ctx.thread_idx.x == 0 && ctx.thread_idx.y == 0;
                if ctx.branch(first) {
                    let star = ctx.global_read(self.stars, block_id);
                    // g(m) = A · 2.512^(−m): one powf call (a software
                    // sequence — count ~8 scalar flops) plus a multiply.
                    let g = starfield::magnitude::brightness(star.mag, self.a_factor);
                    ctx.flops(FlopClass::Special, 8);
                    ctx.flops(FlopClass::Mul, 1);
                    ctx.shared_write(SMEM_BRIGHTNESS, g);
                    ctx.shared_write(SMEM_POS_X, star.x);
                    ctx.shared_write(SMEM_POS_Y, star.y);
                }
                // Step 6: __syncthreads() = the phase boundary.
            }
            _ => {
                // Step 7: read the staged star once into registers.
                let g = ctx.shared_read(SMEM_BRIGHTNESS);
                let pos_x = ctx.shared_read(SMEM_POS_X);
                let pos_y = ctx.shared_read(SMEM_POS_Y);

                // pixel = starPos − MARGIN + threadIdx (Fig. 6 step 7).
                let (x0, y0) = self.roi.origin(pos_x, pos_y);
                let px = x0 + ctx.thread_idx.x as i64;
                let py = y0 + ctx.thread_idx.y as i64;
                ctx.flops(FlopClass::Add, 2);

                // Step 8: image-bounds guard, PSF, atomic accumulation.
                let in_image =
                    px >= 0 && py >= 0 && px < self.width as i64 && py < self.height as i64;
                if ctx.branch(in_image) {
                    let mu = self.psf.eval(px as f32, py as f32, pos_x, pos_y);
                    // dx, dy; dx²+dy² (2 FMA); expf (software sequence,
                    // ~8 scalar flops, one warp call); g·μ scaling.
                    ctx.flops(FlopClass::Add, 2);
                    ctx.flops(FlopClass::Fma, 2);
                    ctx.flops(FlopClass::Special, 8);
                    ctx.flops(FlopClass::Mul, 2);
                    let gray = g * mu;
                    let idx = py as usize * self.width + px as usize;
                    ctx.atomic_add_global(self.image, idx, gray);
                }
            }
        }
    }

    fn deposit_rows(&self, cfg: &LaunchConfig) -> Option<usize> {
        // Only the canonical star-centric shape (side × side block); any
        // other launch runs per thread.
        let side = self.roi.side() as u32;
        (cfg.block == Dim3::d2(side, side)).then_some(self.height)
    }

    /// Counter pass: the whole block in one call. Must mirror
    /// [`Self::run`] through the warp analyzer *exactly* — the counter
    /// charges below are the closed forms of what the analyzer derives from
    /// the per-thread event traces (`tests/exec_modes.rs` proves the
    /// equivalence over a launch-shape grid).
    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let side = self.roi.side();
        let tpb = side * side;
        let warp = ctx.spec.warp_size as usize;
        let n_warps = tpb.div_ceil(warp) as u64;
        let block_id = ctx.block_linear();

        // Phase 0, step 3: every thread runs the starCount guard (one
        // uniform branch per warp).
        ctx.counters.threads += tpb as u64;
        ctx.counters.warps += n_warps;
        ctx.counters.branches += n_warps;
        if block_id >= self.star_count {
            // Grid-padding block: all threads exit before the barrier.
            ctx.rows = 0..0;
            return;
        }

        // Phase 0, step 5: the `first` branch (warp 0 diverges whenever it
        // has more than one lane), one star read by lane 0 (a 12-byte
        // access spanning however many coalescing segments it straddles),
        // the brightness computation, three staging writes.
        ctx.counters.branches += n_warps;
        if tpb > 1 {
            ctx.counters.divergent_branches += 1;
        }
        let star = self.stars.read(block_id);
        let addr = self.stars.addr_of(block_id);
        let bytes = std::mem::size_of::<DeviceStar>() as u64;
        let seg = ctx.spec.coalesce_segment as u64;
        ctx.counters.global_requests += 1;
        ctx.counters.global_transactions += (addr + bytes - 1) / seg - addr / seg + 1;
        ctx.counters.flops_special += 8;
        ctx.counters.special_issues += 1;
        ctx.counters.flops_mul += 1;
        ctx.counters.arith_issues += 1;
        ctx.counters.shared_requests += 3;

        // Phase boundary (step 6): one barrier per live warp. Phase 1:
        // every warp re-reads the three staged words (broadcast, conflict
        // free) and derives its pixel coordinates.
        ctx.counters.barriers += n_warps;
        ctx.counters.warps += n_warps;
        ctx.counters.shared_requests += 3 * n_warps;
        ctx.counters.flops_add += 2 * tpb as u64;
        ctx.counters.arith_issues += n_warps;
        ctx.counters.branches += n_warps; // the in-image guard

        // Step 8, per warp with in-image lanes: the PSF arithmetic, one
        // atomic request (distinct addresses), and a divergent guard when
        // only some lanes are in the image. An interior ROI aggregates to
        // closed form; one wholly off the image has no such warp. The
        // deposit pass adds inside the same clipped ROI.
        let Some(roi) = self.roi.clip(star.x, star.y, self.width, self.height) else {
            ctx.rows = 0..0;
            return;
        };
        ctx.rows = roi.y0..roi.y1;
        let (x0, y0) = (roi.full_x0, roi.full_y0);
        let (w, h) = (self.width as i64, self.height as i64);
        let charge = |c: &mut gpusim::Counters, n_in: u64, warps: u64| {
            c.flops_add += 2 * n_in;
            c.flops_fma += 2 * n_in;
            c.flops_special += 8 * n_in;
            c.flops_mul += 2 * n_in;
            c.arith_issues += 3 * warps;
            c.special_issues += warps;
            c.atomic_requests += warps;
        };
        if x0 >= 0 && y0 >= 0 && x0 + side as i64 <= w && y0 + side as i64 <= h {
            charge(ctx.counters, tpb as u64, n_warps);
            return;
        }
        let mut t = 0usize;
        while t < tpb {
            let lanes = warp.min(tpb - t);
            let n_in = (t..t + lanes)
                .filter(|&tt| {
                    let px = x0 + (tt % side) as i64;
                    let py = y0 + (tt / side) as i64;
                    px >= 0 && py >= 0 && px < w && py < h
                })
                .count() as u64;
            if n_in > 0 {
                if n_in < lanes as u64 {
                    ctx.counters.divergent_branches += 1;
                }
                charge(ctx.counters, n_in, 1);
            }
            t += lanes;
        }
    }

    /// Deposit pass: `g·μ` for every pixel of the star's clipped ROI in
    /// image rows `rows`, evaluated per pixel exactly as [`Self::run`]
    /// does and added row by row.
    fn deposit(&self, block: usize, rows: Range<usize>) {
        if block >= self.star_count {
            return;
        }
        let star = self.stars.read(block);
        let Some(roi) = self.roi.clip(star.x, star.y, self.width, self.height) else {
            return;
        };
        let g = starfield::magnitude::brightness(star.mag, self.a_factor);
        // A stack row covers the 1024-thread launch cap (side ≤ 32).
        let mut vals = [0.0f32; 32];
        let vals = &mut vals[..roi.x1 - roi.x0];
        for py in roi.y0.max(rows.start)..roi.y1.min(rows.end) {
            for (v, px) in vals.iter_mut().zip(roi.x0..) {
                *v = g * self.psf.eval(px as f32, py as f32, star.x, star.y);
            }
            self.image.merge_add_range(py * self.width + roi.x0, vals);
        }
    }
}

/// The parallel (star-centric GPU) simulator.
pub struct ParallelSimulator {
    gpu: VirtualGpu,
}

impl ParallelSimulator {
    /// Simulator on the paper's GTX480.
    pub fn new() -> Self {
        ParallelSimulator {
            gpu: VirtualGpu::gtx480(),
        }
    }

    /// Simulator on a caller-provided device.
    pub fn on(gpu: VirtualGpu) -> Self {
        ParallelSimulator { gpu }
    }

    /// The underlying device.
    pub fn gpu(&self) -> &VirtualGpu {
        &self.gpu
    }
}

impl Default for ParallelSimulator {
    fn default() -> Self {
        ParallelSimulator::new()
    }
}

impl Simulator for ParallelSimulator {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn simulate(
        &self,
        catalog: &StarCatalog,
        config: &SimConfig,
    ) -> Result<SimulationReport, SimError> {
        config.validate()?;
        // Static pre-launch validation: an ROI square overrunning the image
        // would send every star's inner loop out of bounds — reject with a
        // typed error before anything is dispatched.
        gpusim::sanitize::validate_roi(config.roi_side, config.width, config.height)?;
        let wall_start = Instant::now();
        let gpu = &self.gpu;
        let (image, kp, transfer_s) = render_once(gpu, config, catalog, |stars, image| {
            let (kernel, cfg) =
                StarCentricKernel::build(config, gpu.spec(), stars, catalog.len(), image);
            Ok(gpu.launch_mode("star-centric", &kernel, cfg, config.exec_mode)?)
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
    use crate::sequential::SequentialSimulator;
    use starfield::{FieldGenerator, Star};
    use starimage::diff::differing_pixels;

    fn small_config() -> SimConfig {
        SimConfig::new(64, 64, 10)
    }

    #[test]
    fn matches_sequential_on_a_single_star() {
        let cat = StarCatalog::from_stars(vec![Star::new(30.5, 31.25, 2.5)]);
        let cfg = small_config();
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        assert_eq!(
            differing_pixels(&seq.image, &par.image),
            0,
            "parallel image must match sequential"
        );
    }

    #[test]
    fn matches_sequential_on_a_random_field() {
        let cat = FieldGenerator::new(64, 64).generate(200, 7);
        let cfg = small_config();
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        // The same `g·μ` values, added in star order on either simulator.
        assert_eq!(
            differing_pixels(&seq.image, &par.image),
            0,
            "dense-field images must agree"
        );
    }

    #[test]
    fn kernel_counters_reflect_the_decomposition() {
        let n = 50;
        let cat = FieldGenerator::new(64, 64).generate(n, 3);
        let cfg = small_config();
        let report = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
        let k = &report.profile.kernels[0];
        // One global star read per block (the shared-memory staging).
        assert_eq!(k.counters.global_requests, n as u64);
        // Brightness: one SFU op per star; PSF: one per in-bounds pixel.
        assert!(k.counters.flops_special >= n as u64);
        // Atomics: one per in-bounds ROI pixel ⇒ ≤ n·side².
        assert!(k.counters.atomic_requests > 0);
        assert!(k.counters.threads >= (n * 100) as u64);
        // Two phases with a barrier between: 4 warps per 100-thread block.
        assert_eq!(k.counters.barriers, (n * 4) as u64);
        assert_eq!(k.counters.shared_hazards, 0, "staging is barrier-safe");
    }

    #[test]
    fn empty_catalog_is_black() {
        let report = ParallelSimulator::new()
            .simulate(&StarCatalog::new(), &small_config())
            .unwrap();
        assert!(report.image.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transfers_appear_as_non_kernel_overhead() {
        let cat = FieldGenerator::new(64, 64).generate(10, 1);
        let report = ParallelSimulator::new()
            .simulate(&cat, &small_config())
            .unwrap();
        let t = report.profile.overhead_named("CPU-GPU transmission");
        assert!(t > 0.0);
        assert_eq!(report.profile.overheads.len(), 1);
        assert!(
            (report.app_time_s - (report.kernel_time_s() + report.non_kernel_time_s())).abs()
                < 1e-12
        );
    }

    #[test]
    fn oversized_roi_propagates_launch_error() {
        let cat = StarCatalog::from_stars(vec![Star::new(32.0, 32.0, 3.0)]);
        let cfg = SimConfig::new(64, 64, 33); // 33² > 1024 threads
        assert!(matches!(
            ParallelSimulator::new().simulate(&cat, &cfg),
            Err(SimError::Gpu(_))
        ));
    }
}
