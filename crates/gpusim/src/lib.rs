//! # gpusim — a virtual CUDA-class GPU
//!
//! The paper's simulators run on an NVIDIA GTX480; this machine has no GPU,
//! so this crate substitutes a **software virtual GPU** that both
//!
//! 1. **functionally executes** CUDA-style kernels — grid → blocks → warps
//!    of 32 → threads, `__syncthreads()` barriers expressed as kernel
//!    *phases*, per-block shared memory, global-memory `atomicAdd(float*)`,
//!    and layered 2-D textures — producing bit-real images on host threads;
//!    and
//! 2. **analytically times** each launch with a calibrated Fermi cost
//!    model: per-warp instruction costs, a coalescing analyzer (unique
//!    128-byte segments per warp access), a 32-bank shared-memory conflict
//!    analyzer, a set-associative texture cache simulator fed with
//!    Morton-swizzled texel addresses, atomic-serialization accounting, an
//!    occupancy-driven latency-hiding model, and a PCIe transfer model for
//!    the non-kernel overheads the paper's evaluation revolves around.
//!
//! Blocks are assigned to virtual SMs deterministically (`block mod
//! sm_count`) and each SM's blocks run in order, so all counters — and
//! therefore all modeled times — are reproducible regardless of host
//! parallelism. Every executor adds each pixel's values in block order,
//! so images are too — on the batched executor's per-thread route, only
//! for kernels whose threads write disjoint pixels (see [`Kernel`]).
//!
//! ## Writing a kernel
//!
//! ```
//! use gpusim::{VirtualGpu, Kernel, ThreadCtx, LaunchConfig, FlopClass};
//! use gpusim::memory::global::{GlobalBuffer, GlobalAtomicF32};
//!
//! /// Doubles every element: out[i] += 2 * in[i].
//! struct Double<'a> {
//!     input: &'a GlobalBuffer<f32>,
//!     out: &'a GlobalAtomicF32,
//! }
//!
//! impl Kernel for Double<'_> {
//!     fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
//!         let i = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
//!         if !ctx.branch(i < self.input.len()) {
//!             ctx.exit();
//!             return;
//!         }
//!         let v = ctx.global_read(self.input, i);
//!         ctx.flops(FlopClass::Mul, 1);
//!         ctx.atomic_add_global(self.out, i, 2.0 * v);
//!     }
//! }
//!
//! let gpu = VirtualGpu::gtx480();
//! let (input, _) = gpu.upload(vec![1.0f32, 2.0, 3.0]);
//! let out = gpu.alloc_atomic_f32(3);
//! let kernel = Double { input: &input, out: &out };
//! let profile = gpu.launch("double", &kernel, LaunchConfig::new(1u32, 32u32)).unwrap();
//! assert_eq!(out.to_host(), vec![2.0, 4.0, 6.0]);
//! assert!(profile.time_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod counters;
pub mod device;
pub mod dim;
pub mod error;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod launch;
pub mod memory;
pub mod pool;
pub mod profiler;
pub mod sanitize;
pub mod telemetry;
pub mod timing;
pub mod warp;

pub use analyze::{
    AccessPattern, AccessSite, CacheRegime, KernelReport, Lint, LintLevel, Prediction, SiteKind,
    TextureFootprint,
};
pub use counters::{Counters, FlopClass};
pub use device::DeviceSpec;
pub use dim::Dim3;
pub use error::GpuError;
pub use exec::{ExecMode, GpuDiagnostics, VirtualGpu};
pub use fault::{ArmedFaults, FaultKind, FaultPlan, FaultSpec};
pub use kernel::{BlockCtx, Event, Kernel, ThreadCtx};
pub use launch::LaunchConfig;
pub use memory::global::{GlobalAtomicF32, GlobalBuffer};
pub use memory::texture::Texture;
pub use memory::transfer::{MemcpyKind, TransferModel};
pub use pool::WorkerPool;
pub use profiler::{
    AppProfile, Boundedness, DeviceUtilization, KernelProfile, OverheadItem, UtilizationSink,
};
pub use sanitize::{Finding, FindingKind, MemSpace, SanitizeConfig, SanitizeReport};
pub use telemetry::{EventRing, GpuTelemetry, LaneEvent, LaneEventKind, LaunchTrace};
pub use timing::{CostModel, Occupancy};
