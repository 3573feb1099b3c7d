//! Workload inputs: shapes, seeded skies and spec streams, and the
//! scene `starsimd` derives from a `SessionSpec`. Everything here is a
//! pure function of the seed, so the untraced and traced runs of one
//! workload replay the same inputs.

use starsim::field::dynamics::AttitudeDynamics;
use starsim::field::{Attitude, Camera, SkyCatalog, SkyStar};
use starsim::gpu::VirtualGpu;
use starsim::sim::protocol::MAX_STARS;
use starsim::sim::server::digest_fold;
use starsim::sim::{FrameSequencer, ServerConfig, SessionSpec, SimConfig};

/// Field of view of every camera in the benchmark (and of `starsimd`).
pub const FOV_DEG: f64 = 10.0;

/// The size of one workload: sky stars, square image side, ROI side and
/// frames per client operation.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub stars: usize,
    pub side: usize,
    pub roi: usize,
    pub burst: u32,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseField,
    WideSky,
    SessionChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::DenseField, Self::WideSky, Self::SessionChurn];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::DenseField => "dense-field",
            Self::WideSky => "wide-sky",
            Self::SessionChurn => "session-churn",
        }
    }

    /// The benchmark shape.
    pub fn shape(self) -> Shape {
        match self {
            Self::DenseField => Shape {
                stars: 1 << 15,
                side: 1024,
                roi: 10,
                burst: 4,
            },
            Self::WideSky => Shape {
                stars: MAX_STARS,
                side: 1024,
                roi: 8,
                burst: 2,
            },
            // ROI is the cold-open probe's; the cycle stream draws CHURN_ROIS.
            Self::SessionChurn => Shape {
                stars: 1 << 14,
                side: 256,
                roi: 8,
                burst: 1,
            },
        }
    }

    /// The percentile `latency_tail_ms` reports. Each leaves well over
    /// ten operations beyond it in a 30-second run on a 2-core host. A
    /// higher one spread too much from run to run there: on
    /// session-churn, p95 varied by 0.22 of its median (IQR over seeds)
    /// against 0.085 for p75.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Self::DenseField | Self::SessionChurn => 75.0,
            Self::WideSky => 90.0,
        }
    }

    /// A tiny shape with the same structure, for `--self-test`.
    pub fn tiny_shape(self) -> Shape {
        match self {
            Self::DenseField => Shape {
                stars: 1 << 11,
                side: 128,
                roi: 10,
                burst: 4,
            },
            Self::WideSky => Shape {
                stars: 1 << 14,
                side: 128,
                roi: 8,
                burst: 2,
            },
            Self::SessionChurn => Shape {
                stars: 1 << 10,
                side: 64,
                roi: 8,
                burst: 1,
            },
        }
    }
}

/// splitmix64: the benchmark's own seeded stream (the program never sees
/// it, only the inputs drawn from it).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------- dense

pub const DENSE_EXPOSURE_S: f64 = 0.05;
pub const DENSE_FRAME_DT: f64 = 0.1;

/// A plastic-number lattice of `stars` stars that lies entirely inside
/// the field of view; the seed shifts the lattice.
pub fn dense_sky(stars: usize, seed: u64) -> SkyCatalog {
    const PHI1: f64 = 0.754_877_666_246_692_8;
    const PHI2: f64 = 0.569_840_290_998_053_2;
    let fov_rad = FOV_DEG.to_radians();
    let offset = (seed % 4096) as f64 * PHI2;
    (0..stars)
        .map(|i| {
            let t = i as f64 + offset;
            let ra = ((t * PHI1).fract() - 0.5) * 0.84 * fov_rad;
            let dec = ((t * PHI2).fract() - 0.5) * 0.84 * fov_rad;
            let mag = 6.0 * ((t * PHI1 * 7.0).fract() as f32);
            SkyStar::new(ra, dec, mag)
        })
        .collect()
}

/// Boresight on the lattice centre, drifting slowly enough that every
/// star stays in view and the smear PSF stays off.
pub fn dense_dynamics() -> AttitudeDynamics {
    AttitudeDynamics::new(Attitude::pointing(0.0, 0.0, 0.0), [5e-4, 0.0, 0.0])
}

pub fn camera(side: usize) -> Result<Camera, String> {
    Camera::from_fov(FOV_DEG.to_radians(), side, side).map_err(|e| format!("camera: {e}"))
}

/// The dense-field frame source, starting `dynamics` frames in.
pub fn dense_sequencer(
    config: SimConfig,
    sky: SkyCatalog,
    dynamics: AttitudeDynamics,
) -> Result<FrameSequencer, String> {
    FrameSequencer::on_device(
        VirtualGpu::gtx480(),
        sky,
        camera(config.width)?,
        dynamics,
        config,
        DENSE_EXPOSURE_S,
        DENSE_FRAME_DT,
    )
    .map_err(|e| format!("dense-field sequencer: {e}"))
}

// ------------------------------------------------------- server scenes

/// The wide-sky session: one long-lived 2^20-star sky.
pub fn wide_spec(seed: u64, shape: Shape) -> SessionSpec {
    spec(shape, shape.roi, seed, "wide")
}

fn spec(shape: Shape, roi: usize, seed: u64, tenant: &str) -> SessionSpec {
    SessionSpec {
        width: shape.side as u32,
        height: shape.side as u32,
        roi_side: roi as u32,
        stars: shape.stars as u32,
        seed,
        backend: 0,
        tenant: tenant.to_string(),
    }
}

/// The ROI sides session-churn draws. A spec's lookup-table key holds
/// only its optics, here the ROI, so these 16 distinct tables are twice
/// what `ServerConfig::default()`'s LUT cache holds (8, at most 4 per
/// tenant): about half the opens miss, build, insert and evict.
pub const CHURN_ROIS: std::ops::RangeInclusive<usize> = 4..=19;
pub const CHURN_TENANTS: usize = 4;
/// Specs the session-churn stream draws from: every ROI twice, under
/// two different tenants.
pub const CHURN_POOL: usize = 32;

/// The session-churn spec pool. The mix of ROIs and tenants is the same
/// for every seed, so seeds differ in scenes and order, not in how much
/// work a cycle does; the seed gives each entry its scene seed.
pub fn churn_pool(seed: u64, shape: Shape) -> Vec<SessionSpec> {
    let mut rng = SplitMix::new(seed ^ 0x6368_7572_6e00_0000);
    let rois = CHURN_ROIS.count();
    (0..CHURN_POOL)
        .map(|i| {
            let roi = CHURN_ROIS.start() + (i / 2) % rois;
            let tenant = format!("tenant-{}", i % CHURN_TENANTS);
            spec(shape, roi, rng.next_u64(), &tenant)
        })
        .collect()
}

/// The order in which churn client `client` walks the pool.
pub fn churn_stream(seed: u64, client: usize) -> SplitMix {
    SplitMix::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (client as u64 + 1))
}

/// The cold-open probe for session-churn's `setup_s`: a fixed ROI, so
/// the figure does not depend on which ROIs the seed drew.
pub fn churn_setup_spec(seed: u64, shape: Shape) -> SessionSpec {
    spec(shape, shape.roi, seed, "setup")
}

/// The scene `starsimd` builds for a spec (mirrors its open handler):
/// the seeded synthetic sky, a 10° camera, a gentle drift.
pub fn server_dynamics() -> AttitudeDynamics {
    AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), [5e-4, 0.0, 0.0])
}

pub fn server_timing() -> (f64, f64) {
    let config = ServerConfig::default();
    (config.exposure_s, config.frame_dt)
}

/// Folds one frame's pixels into a session digest exactly as `starsimd`
/// does before replying.
pub fn fold_frame(mut digest: u64, pixels: &[f32]) -> u64 {
    for px in pixels {
        digest = digest_fold(digest, &px.to_bits().to_le_bytes());
    }
    digest
}
