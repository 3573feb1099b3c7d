//! # starsim-core — the paper's star-image simulators
//!
//! Reproduces Li, Zhang, Zheng & Hu, *Implementing High-performance
//! Intensity Model with Blur Effect on GPUs for Large-scale Star Image
//! Simulation* (IPDPS Workshops 2012):
//!
//! * [`SequentialSimulator`] — the single-threaded CPU baseline (§III-A);
//! * [`ParallelSimulator`] — the star-centric CUDA kernel (§III-B, Fig. 6)
//!   on the virtual GPU: block per star, thread per ROI pixel,
//!   shared-memory brightness staging, global `atomicAdd`;
//! * [`AdaptiveSimulator`] — the lookup-table-in-texture-memory variant
//!   (§III-C, Fig. 8);
//! * [`PixelCentricSimulator`] — the decomposition the paper rejects
//!   (Fig. 3a), kept as a quantitative ablation;
//! * [`MultiGpuSimulator`] — the paper's future-work extension;
//! * [`selection`] — Table III's inflection-point simulator choice.
//!
//! All simulators implement [`Simulator`] and return a
//! [`SimulationReport`] carrying the image plus the kernel/non-kernel
//! timing decomposition the paper's evaluation (Figs. 9–16, Tables I–III)
//! is built on.

#![warn(missing_docs)]

pub mod adaptive;
pub mod admission;
pub mod analysis;
pub mod config;
pub mod contention;
pub mod error;
pub mod frames;
pub mod lut_build;
pub mod multi_gpu;
pub mod obsplane;
pub mod parallel;
pub mod pixel_centric;
pub mod protocol;
pub mod report;
pub mod resilience;
pub mod selection;
pub mod sequential;
pub mod server;
pub mod session;
pub mod star_record;
pub mod streams;
pub mod telemetry;
pub mod validate;

pub use adaptive::{build_lut, AdaptiveKernel, AdaptiveSimulator};
pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, Permit, Rejected, ShedLevel,
};
pub use analysis::{
    audit_adaptive, audit_pixel_centric, audit_production, audit_star_centric, KernelAudit,
};
pub use config::{PsfKind, SimConfig};
pub use error::SimError;
pub use frames::{Frame, FrameSequencer, OverlapReport, PipelinedFrame, ThroughputReport};
pub use gpusim::ExecMode;
pub use multi_gpu::MultiGpuSimulator;
pub use obsplane::{
    FlightEntry, FlightRecorder, MetricsSnapshot, ObsPlane, SeriesRing, SloKind, SloReport, SloSpec,
};
pub use parallel::{ParallelSimulator, StarCentricKernel};
pub use pixel_centric::{PixelCentricKernel, PixelCentricSimulator};
pub use protocol::{
    Message, MonitorReply, ProtoError, RejectCode, RenderDone, SessionSpec, SloState,
};
pub use report::SimulationReport;
pub use resilience::{CancelToken, ResilienceReport, RetryPolicy, Rung};
pub use selection::{Choice, InflectionPoint};
pub use sequential::SequentialSimulator;
pub use server::{Client, ServerConfig, ServerHandle, StarServer};
pub use session::{
    AdaptiveSession, FrameTiming, LutCache, LutCacheStats, LutSource, PreparedStars, SessionSetup,
};
pub use star_record::{to_device_stars, DeviceStar};
pub use telemetry::{FrameTelemetry, MetricsRegistry, SpanRecord, StageStats, Telemetry};

use starfield::StarCatalog;

/// The common simulator interface.
pub trait Simulator {
    /// Short identifier (`"sequential"`, `"parallel"`, `"adaptive"`, ...).
    fn name(&self) -> &'static str;

    /// Renders `catalog` under `config` and reports image + timings.
    fn simulate(
        &self,
        catalog: &StarCatalog,
        config: &SimConfig,
    ) -> Result<SimulationReport, SimError>;
}
