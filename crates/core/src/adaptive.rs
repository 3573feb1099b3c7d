//! The adaptive simulator: lookup table in texture memory (paper §III-C).
//!
//! A star simulator is rated for a fixed magnitude range and a fixed ROI,
//! so `g(m)·μ(Δx, Δy)` can be precomputed once into a 3-D table (magnitude
//! bin × ROI row × ROI column, Fig. 8), built on the CPU ("due to the small
//! execution overhead and little data parallelism", §IV-D), uploaded, and
//! bound to texture memory. The kernel then *fetches* each pixel's
//! contribution instead of computing it: arithmetic (the `exp`, the `pow`)
//! leaves the kernel, while non-kernel overhead gains the table build and
//! the texture bind — the trade the paper's inflection-point analysis is
//! about.
//!
//! Texture placement buys 2-D locality (ROI rows/columns map to texture
//! x/y, served by Morton-swizzled cache lines) and cache reuse across
//! blocks whose stars share a magnitude bin.

use std::sync::Arc;
use std::time::Instant;

use gpusim::memory::global::{GlobalAtomicF32, GlobalBuffer};
use gpusim::{
    AppProfile, BlockCtx, DeviceSpec, FlopClass, Kernel, LaunchConfig, Texture, ThreadCtx,
    VirtualGpu,
};
use psf::lut::{LookupTable, LutParams};
use psf::roi::Roi;
use starfield::{Star, StarCatalog};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::resilience::ResilienceReport;
use crate::session::SessionSetup;
use crate::star_record::{render_once, DeviceStar};
use crate::telemetry::maybe_span;
use crate::Simulator;

/// Modeled CPU cost per lookup-table entry (one `g(m)·μ` evaluation —
/// an `exp` plus a handful of multiplies on the paper's 2.8 GHz i7 class
/// host, ≈28 cycles). The build is *modeled* rather than wall-measured so
/// reported times do not depend on this host's CPU or build profile; the
/// table itself is still really built. At the paper's ROI-10 geometry this
/// yields ≈0.13 ms, the same order as Table I's ≈0.71 ms row.
pub const LUT_BUILD_S_PER_ENTRY: f64 = 10e-9;

/// Shared-memory layout: `[lut layer, posX, posY]` — "the content of shared
/// memory ... is also changed by storing star magnitude instead" (§III-C);
/// we stage the resolved table layer, which is the binned magnitude.
const SMEM_WORDS: usize = 3;
const SMEM_LAYER: usize = 0;
const SMEM_POS_X: usize = 1;
const SMEM_POS_Y: usize = 2;

/// The lookup-table kernel.
pub struct AdaptiveKernel<'a> {
    /// Device star array.
    pub stars: &'a GlobalBuffer<DeviceStar>,
    /// Device output image.
    pub image: &'a GlobalAtomicF32,
    /// The bound texture holding the lookup table.
    pub lut_tex: &'a Texture,
    /// Host lookup table (for bin/phase arithmetic — the same index math
    /// the device kernel would run; values come from the texture).
    pub lut: &'a LookupTable,
    /// `starCount` guard.
    pub star_count: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// ROI geometry.
    pub roi: Roi,
}

impl<'a> AdaptiveKernel<'a> {
    /// The kernel every adaptive launch runs — over the first `star_count`
    /// stars of `stars`, fetching from `lut` into `image` — and its launch
    /// shape: one ROI-sized block per star with the 3-word shared-memory
    /// staging.
    pub(crate) fn build(
        config: &SimConfig,
        device: &DeviceSpec,
        lut: &'a BoundLut,
        stars: &'a GlobalBuffer<DeviceStar>,
        star_count: usize,
        image: &'a GlobalAtomicF32,
    ) -> (Self, LaunchConfig) {
        let kernel = AdaptiveKernel {
            stars,
            image,
            lut_tex: &lut.tex,
            lut: &lut.lut,
            star_count,
            width: config.width,
            height: config.height,
            roi: Roi::new(config.roi_side),
        };
        let cfg = LaunchConfig::star_centric(star_count.max(1), config.roi_side, device)
            .with_shared_mem(SMEM_WORDS * 4)
            .with_backend(config.backend);
        (kernel, cfg)
    }
}

impl Kernel for AdaptiveKernel<'_> {
    fn phases(&self) -> usize {
        2
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) {
        let block_id = ctx.block_linear();
        if phase == 0 && !ctx.branch(block_id < self.star_count) {
            ctx.exit();
            return;
        }

        match phase {
            0 => {
                let first = ctx.thread_idx.x == 0 && ctx.thread_idx.y == 0;
                if ctx.branch(first) {
                    let star = ctx.global_read(self.stars, block_id);
                    // Magnitude-bin (and phase-bin) index arithmetic.
                    let layer = self.lut.layer_of(&Star::new(star.x, star.y, star.mag));
                    ctx.flops(FlopClass::Add, 1);
                    ctx.flops(FlopClass::Mul, 1);
                    ctx.shared_write(SMEM_LAYER, layer as f32);
                    ctx.shared_write(SMEM_POS_X, star.x);
                    ctx.shared_write(SMEM_POS_Y, star.y);
                }
            }
            _ => {
                let layer = ctx.shared_read(SMEM_LAYER) as usize;
                let pos_x = ctx.shared_read(SMEM_POS_X);
                let pos_y = ctx.shared_read(SMEM_POS_Y);

                let (x0, y0) = self.roi.origin(pos_x, pos_y);
                let tx = ctx.thread_idx.x as i64;
                let ty = ctx.thread_idx.y as i64;
                let px = x0 + tx;
                let py = y0 + ty;
                ctx.flops(FlopClass::Add, 2);

                let in_image =
                    px >= 0 && py >= 0 && px < self.width as i64 && py < self.height as i64;
                if ctx.branch(in_image) {
                    // The whole intensity computation is one texture fetch:
                    // LUT[layer][ty][tx] = g(m_bin) · μ(Δx, Δy).
                    let gray = ctx.tex_fetch(self.lut_tex, layer, tx, ty);
                    let idx = py as usize * self.width + px as usize;
                    ctx.atomic_add_global(self.image, idx, gray);
                }
            }
        }
    }

    /// Batched fast path (see [`StarCentricKernel::run_block`]'s notes —
    /// same structure, with texture fetches driven through the SM's cache
    /// simulator in the exact lane order of the reference path).
    ///
    /// [`StarCentricKernel::run_block`]: crate::parallel::StarCentricKernel
    fn run_block<'k>(&'k self, ctx: &mut BlockCtx<'k, '_>) -> bool {
        let side = self.roi.side();
        if ctx.block_dim.x as usize != side
            || ctx.block_dim.y as usize != side
            || ctx.block_dim.z != 1
        {
            return false;
        }
        let tpb = side * side;
        let warp = ctx.spec.warp_size as usize;
        let n_warps = tpb.div_ceil(warp) as u64;
        let block_id = ctx.block_linear();

        // Phase 0: starCount guard for every thread.
        ctx.counters.threads += tpb as u64;
        ctx.counters.warps += n_warps;
        ctx.counters.branches += n_warps;
        if block_id >= self.star_count {
            return true;
        }

        // Phase 0, designated thread: star read, layer index arithmetic
        // (an add and a mul — no SFU work, that is the whole point),
        // three staging writes.
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
        let layer = self.lut.layer_of(&Star::new(star.x, star.y, star.mag));
        ctx.counters.flops_add += 1;
        ctx.counters.flops_mul += 1;
        ctx.counters.arith_issues += 2;
        ctx.counters.shared_requests += 3;
        // The reference kernel stages the layer through a shared-memory
        // f32; replicate the round-trip so any (guarded-against) precision
        // loss is identical.
        let layer = (layer as f32) as usize;

        // Phase 1: barrier, broadcast reads, pixel coordinates.
        ctx.counters.barriers += n_warps;
        ctx.counters.warps += n_warps;
        ctx.counters.shared_requests += 3 * n_warps;
        ctx.counters.flops_add += 2 * tpb as u64;
        ctx.counters.arith_issues += n_warps;
        ctx.counters.branches += n_warps;

        let (x0, y0) = self.roi.origin(star.x, star.y);
        let (w, h) = (self.width as i64, self.height as i64);
        // An interior ROI over a table of exactly the ROI's shape (as every
        // simulator binds it) fetches each texel of one layer once, in the
        // layer walk's row-major order — the order the reference path feeds
        // the cache simulator, so hit/miss sequences are identical. Edge
        // ROIs and any other table shape take the per-lane loop below,
        // which is exact for interior ROIs too.
        let interior = x0 >= 0 && y0 >= 0 && x0 + side as i64 <= w && y0 + side as i64 <= h;
        let walk = if interior && self.lut_tex.width() == side && self.lut_tex.height() == side {
            self.lut_tex.walk(layer, ctx.cache.line_bytes())
        } else {
            None
        };
        if let Some((walk, line_offset)) = walk {
            // All lanes fetch, one texture request per warp. Counter
            // increments hoisted out of the pixel loop; the whole layer
            // goes through the SM's cache as one walk replay, then each
            // LUT row is added into its accumulator span — one add per
            // pixel, so the sum is the per-pixel loop's on either backend.
            ctx.counters.tex_requests += n_warps;
            ctx.counters.atomic_requests += n_warps;
            ctx.counters.tex_fetches += tpb as u64;
            ctx.counters.tex_hits += ctx.cache.access_walk(walk, line_offset);
            let acc = ctx.shadow.accumulator(self.image);
            for j in 0..side {
                let row = (y0 as usize + j) * self.width + x0 as usize;
                psf::lanes::accumulate(
                    acc.span_mut(row, row + side),
                    self.lut_tex.row(layer, j as i64),
                );
            }
        } else {
            let acc = ctx.shadow.accumulator(self.image);
            let mut t = 0usize;
            while t < tpb {
                let lanes = warp.min(tpb - t);
                let mut n_in = 0u64;
                for lane in 0..lanes {
                    let tt = t + lane;
                    let (tx, ty) = (tt % side, tt / side);
                    let px = x0 + tx as i64;
                    let py = y0 + ty as i64;
                    if px >= 0 && py >= 0 && px < w && py < h {
                        n_in += 1;
                        let (gray, taddr) = self.lut_tex.fetch(layer, tx as i64, ty as i64);
                        ctx.counters.tex_fetches += 1;
                        if ctx.cache.access(taddr) {
                            ctx.counters.tex_hits += 1;
                        }
                        let idx = py as usize * self.width + px as usize;
                        acc.add(idx, gray);
                    }
                }
                if n_in > 0 {
                    if n_in < lanes as u64 {
                        ctx.counters.divergent_branches += 1;
                    }
                    ctx.counters.tex_requests += 1;
                    ctx.counters.atomic_requests += 1;
                }
                t += lanes;
            }
        }
        true
    }
}

/// Builds the lookup table `config` implies, bounded by `device`'s
/// texture memory (paper §IV-D builds it on the host). The table is really
/// built; its time charge is modeled ([`LUT_BUILD_S_PER_ENTRY`]).
pub fn build_lut(config: &SimConfig, device: &DeviceSpec) -> Result<LookupTable, SimError> {
    let params = LutParams {
        mag_bins: config.lut_mag_bins,
        phases: config.lut_phases,
        mag_range: config.mag_range,
    };
    let lut = LookupTable::build(
        &config.psf_model(),
        config.a_factor,
        Roi::new(config.roi_side),
        params,
        Some(device.texture_mem_bytes),
    )?;
    // The kernel stages the layer index through a shared-memory f32
    // (the paper's 3-word shared layout); indices above 2^24 would
    // silently lose precision there.
    if lut.layers() >= (1 << 24) {
        return Err(SimError::InvalidConfig(format!(
            "lookup table has {} layers; the shared-memory staging is \
             exact only below 2^24 — reduce lut_mag_bins or lut_phases",
            lut.layers()
        )));
    }
    Ok(lut)
}

/// A lookup table bound to a device's texture memory ([`bind_lut`]).
pub(crate) struct BoundLut {
    pub(crate) lut: Arc<LookupTable>,
    pub(crate) tex: Texture,
    /// The table came from a cache, so its build was not paid here.
    pub(crate) cached: bool,
    /// Modeled table build, seconds: zero for a table from a cache.
    pub(crate) build_s: f64,
    /// Modeled table upload, seconds.
    pub(crate) upload_s: f64,
    /// Modeled bind call, seconds.
    pub(crate) bind_s: f64,
    /// The failed bind attempts before the one that took.
    pub(crate) bind_faults: ResilienceReport,
}

/// The adaptive setup, shared by the one-shot simulator, sessions and the
/// audit. It rejects an ROI that overruns the image before any table is
/// built or looked up, so a rejected setup leaves a shared cache as it
/// was. It then fetches the table from `setup.lut` under a `lut-build`
/// span and binds it to `gpu`'s texture memory under a `texture-bind`
/// span, retrying a failed bind under `setup.retry` (one attempt without
/// one; every failure is recorded in `bind_faults`). Last, it checks that every
/// index the kernel can fetch (magnitude layer, ROI row and column) lies
/// inside the bound table: texture clamping would mask a shape mismatch.
pub(crate) fn bind_lut(
    gpu: &VirtualGpu,
    config: &SimConfig,
    setup: &SessionSetup<'_>,
) -> Result<BoundLut, SimError> {
    let side = config.roi_side;
    gpusim::sanitize::validate_roi(side, config.width, config.height)?;
    let (lut, cached) = {
        let _span = maybe_span(setup.telemetry.as_ref(), "lut-build");
        setup.lut.fetch(gpu, config, setup.telemetry.as_deref())?
    };
    let _span = maybe_span(setup.telemetry.as_ref(), "texture-bind");
    let attempts = setup.retry.map_or(1, |p| u64::from(p.max_attempts.max(1)));
    let mut bind_faults = ResilienceReport::default();
    let (tex, upload_s, bind_s) = loop {
        match gpu.bind_texture(side, side, lut.layers(), lut.data().to_vec()) {
            Ok(bound) => break bound,
            Err(e) => {
                let err = SimError::from(e);
                bind_faults.record_error(&err);
                // Attempts so far: the failed one and every retry before it.
                if bind_faults.retries + 1 >= attempts {
                    return Err(err);
                }
                bind_faults.retries += 1;
            }
        }
    };
    gpusim::sanitize::validate_lut_domain(&tex, lut.layers() - 1, side - 1, side - 1)?;
    let build_s = if cached {
        0.0
    } else {
        lut.len() as f64 * LUT_BUILD_S_PER_ENTRY
    };
    Ok(BoundLut {
        lut,
        tex,
        cached,
        build_s,
        upload_s,
        bind_s,
        bind_faults,
    })
}

/// The adaptive (lookup-table / texture-memory) simulator.
pub struct AdaptiveSimulator {
    gpu: VirtualGpu,
}

impl AdaptiveSimulator {
    /// Simulator on the paper's GTX480.
    pub fn new() -> Self {
        AdaptiveSimulator {
            gpu: VirtualGpu::gtx480(),
        }
    }

    /// Simulator on a caller-provided device.
    pub fn on(gpu: VirtualGpu) -> Self {
        AdaptiveSimulator { gpu }
    }

    /// The underlying device.
    pub fn gpu(&self) -> &VirtualGpu {
        &self.gpu
    }
}

impl Default for AdaptiveSimulator {
    fn default() -> Self {
        AdaptiveSimulator::new()
    }
}

impl Simulator for AdaptiveSimulator {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn simulate(
        &self,
        catalog: &StarCatalog,
        config: &SimConfig,
    ) -> Result<SimulationReport, SimError> {
        config.validate()?;
        let wall_start = Instant::now();
        let gpu = &self.gpu;
        let lut = bind_lut(gpu, config, &SessionSetup::default())?;
        let (image, kp, transfer_s) = render_once(gpu, config, catalog, |stars, image| {
            let (kernel, cfg) =
                AdaptiveKernel::build(config, gpu.spec(), &lut, stars, catalog.len(), image);
            Ok(gpu.launch_mode("adaptive-lut", &kernel, cfg, config.exec_mode)?)
        })?;
        let mut profile = AppProfile::new();
        profile.push_overhead("lookup table build", lut.build_s);
        profile.push_overhead("texture memory binding", lut.bind_s);
        profile.kernels.push(kp);
        // The table upload rides in the one transmission item, after the
        // frame's own transfers.
        profile.push_overhead("CPU-GPU transmission", transfer_s + lut.upload_s);
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
    use starfield::{FieldGenerator, PositionModel};
    use starimage::diff::compare;

    fn small_config() -> SimConfig {
        SimConfig::new(64, 64, 10)
    }

    /// Pixel-centred stars with bin-centre magnitudes: the LUT is exact.
    fn exact_catalog(bins: usize, cfg: &SimConfig) -> StarCatalog {
        let lut_width = (cfg.mag_range.1 - cfg.mag_range.0) / bins as f32;
        let mags: Vec<f32> = (0..6)
            .map(|i| cfg.mag_range.0 + (i * 13 % bins) as f32 * lut_width + lut_width / 2.0)
            .collect();
        StarCatalog::from_stars(
            mags.iter()
                .enumerate()
                .map(|(i, &m)| Star::new(10.0 + 9.0 * i as f32, 20.0 + 5.0 * i as f32, m))
                .collect(),
        )
    }

    #[test]
    fn exact_inputs_match_sequential_exactly() {
        let cfg = small_config();
        let cat = exact_catalog(cfg.lut_mag_bins, &cfg);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let d = compare(&seq.image, &ada.image, 0.0);
        assert!(
            d.max_rel < 1e-5,
            "bin-centred inputs should match to f32 rounding, got {d:?}"
        );
    }

    #[test]
    fn random_field_matches_within_quantization_bound() {
        let cfg = small_config();
        // Pixel-centred positions isolate the magnitude-bin error.
        let cat = FieldGenerator::new(64, 64)
            .positions(PositionModel::UniformPixelCentred)
            .generate(150, 11);
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let lut = build_lut(&cfg, &DeviceSpec::gtx480()).unwrap();
        let bound = lut.brightness().max_relative_error() * 1.5;
        let d = compare(&seq.image, &ada.image, 0.0);
        assert!(
            d.max_rel <= bound,
            "relative error {} exceeds LUT bound {bound}",
            d.max_rel
        );
    }

    #[test]
    fn kernel_has_no_special_flops() {
        // The whole point: exp/pow left the kernel.
        let cfg = small_config();
        let cat = FieldGenerator::new(64, 64).generate(50, 3);
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let k = &ada.profile.kernels[0];
        assert_eq!(k.counters.flops_special, 0);
        assert!(k.counters.tex_fetches > 0);
        // And the parallel kernel *does* burn SFU ops on the same input.
        let par = crate::parallel::ParallelSimulator::new()
            .simulate(&cat, &cfg)
            .unwrap();
        assert!(par.profile.kernels[0].counters.flops_special > 0);
    }

    #[test]
    fn texture_cache_sees_reuse() {
        // Stars sharing one magnitude bin fetch the same LUT layer: after
        // cold misses the per-SM cache must serve hits.
        let cfg = small_config();
        let cat = StarCatalog::from_stars(
            (0..30)
                .map(|i| Star::new(10.0 + i as f32, 32.0, 5.0))
                .collect(),
        );
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let c = &ada.profile.kernels[0].counters;
        assert!(
            c.tex_hit_rate() > 0.5,
            "expected cache reuse, hit rate {}",
            c.tex_hit_rate()
        );
    }

    #[test]
    fn simd_backend_is_bit_identical() {
        // Both backends take the same walk-replay path; values, counters,
        // and cache hit sequences must be bit-equal.
        let cfg = small_config();
        let cat = FieldGenerator::new(64, 64).generate(150, 17);
        let scalar = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let mut cfg_simd = cfg.clone();
        cfg_simd.backend = gpusim::KernelBackend::Simd;
        let simd = AdaptiveSimulator::new().simulate(&cat, &cfg_simd).unwrap();
        assert_eq!(
            scalar.profile.kernels[0].counters,
            simd.profile.kernels[0].counters
        );
        let a = scalar.image.data();
        let b = simd.image.data();
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "adaptive simd path must be bit-identical"
        );
    }

    #[test]
    fn non_kernel_breakdown_has_the_papers_three_items() {
        let cfg = small_config();
        let cat = FieldGenerator::new(64, 64).generate(10, 1);
        let ada = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        assert!(ada.profile.overhead_named("lookup table build") > 0.0);
        assert!(ada.profile.overhead_named("texture memory binding") > 0.0);
        assert!(ada.profile.overhead_named("CPU-GPU transmission") > 0.0);
        assert_eq!(ada.profile.overheads.len(), 3);
    }

    #[test]
    fn oversized_lut_rejected_like_the_paper() {
        // §IV-D: the table must fit texture memory. Demand an absurd
        // magnitude resolution.
        let mut cfg = small_config();
        cfg.lut_mag_bins = 400_000_000;
        let cat = StarCatalog::new();
        match AdaptiveSimulator::new().simulate(&cat, &cfg) {
            Err(SimError::Psf(psf::PsfError::LutTooLarge { .. })) => {}
            other => panic!("expected LutTooLarge, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn layer_count_beyond_f32_precision_rejected() {
        // The shared-memory f32 staging is exact only below 2^24 layers.
        let mut cfg = SimConfig::new(64, 64, 1);
        cfg.lut_mag_bins = (1 << 24) + 1;
        match build_lut(&cfg, &DeviceSpec::gtx480()) {
            Err(SimError::InvalidConfig(m)) => assert!(m.contains("2^24")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn subpixel_phases_reduce_error_end_to_end() {
        let mut cfg = small_config();
        cfg.lut_mag_bins = 4096;
        let cat = FieldGenerator::new(64, 64).generate(80, 9); // sub-pixel positions
        let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
        let ada1 = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        cfg.lut_phases = 8;
        let ada8 = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap();
        let e1 = compare(&seq.image, &ada1.image, 0.0).rmse;
        let e8 = compare(&seq.image, &ada8.image, 0.0).rmse;
        assert!(
            e8 < e1 * 0.6,
            "8-phase LUT rmse {e8} should beat 1-phase {e1}"
        );
    }
}
