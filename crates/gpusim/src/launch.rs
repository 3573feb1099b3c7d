//! Kernel launch configuration and validation against device limits.

use crate::device::DeviceSpec;
use crate::dim::Dim3;
use crate::error::GpuError;

/// A kernel launch shape: `<<<grid, block>>>` plus the block's shared
/// memory requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks per grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
    /// Shared memory per block, bytes.
    pub shared_mem_bytes: usize,
}

impl LaunchConfig {
    /// A launch with the given grid and block shapes and no shared memory.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            shared_mem_bytes: 0,
        }
    }

    /// Sets the per-block shared memory requirement.
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// The paper's star-centric launch: one block per star arranged in a
    /// 2-D grid (to stay under per-dimension grid limits), `side × side`
    /// threads per block. Matches Fig. 6's `blockId = blockIdx.x +
    /// blockIdx.y*gridDim.x` addressing: the grid may round up, the kernel
    /// guards with `if (blockId >= starCount) return`.
    pub fn star_centric(star_count: usize, roi_side: usize, device: &DeviceSpec) -> Self {
        let max_x = device.max_grid_dim.x as usize;
        let grid_x = star_count.min(max_x).max(1);
        let grid_y = star_count.div_ceil(grid_x).max(1);
        LaunchConfig::new(
            Dim3::d2(grid_x as u32, grid_y as u32),
            Dim3::d2(roi_side as u32, roi_side as u32),
        )
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> usize {
        self.grid.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block.count()
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> usize {
        self.total_blocks() * self.threads_per_block()
    }

    /// Warps per block (rounded up — a partial warp still occupies a slot).
    pub fn warps_per_block(&self, device: &DeviceSpec) -> usize {
        self.threads_per_block().div_ceil(device.warp_size as usize)
    }

    /// Validates this launch against the device limits.
    pub fn validate(&self, device: &DeviceSpec) -> Result<(), GpuError> {
        if self.grid.is_degenerate() || self.block.is_degenerate() {
            return Err(GpuError::InvalidLaunch(format!(
                "degenerate dimensions: grid {:?} block {:?}",
                self.grid, self.block
            )));
        }
        if self.threads_per_block() > device.max_threads_per_block as usize {
            return Err(GpuError::InvalidLaunch(format!(
                "{} threads per block exceeds device limit {} — \
                 on {} a square ROI is limited to side {}",
                self.threads_per_block(),
                device.max_threads_per_block,
                device.name,
                device.max_roi_side()
            )));
        }
        let b = self.block;
        let bm = device.max_block_dim;
        if b.x > bm.x || b.y > bm.y || b.z > bm.z {
            return Err(GpuError::InvalidLaunch(format!(
                "block {:?} exceeds per-dimension limits {:?}",
                b, bm
            )));
        }
        let g = self.grid;
        let gm = device.max_grid_dim;
        if g.x > gm.x || g.y > gm.y || g.z > gm.z {
            return Err(GpuError::InvalidLaunch(format!(
                "grid {:?} exceeds per-dimension limits {:?}",
                g, gm
            )));
        }
        if self.shared_mem_bytes > device.shared_mem_per_block {
            return Err(GpuError::InvalidLaunch(format!(
                "shared memory {} B exceeds per-block limit {} B",
                self.shared_mem_bytes, device.shared_mem_per_block
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::gtx480()
    }

    #[test]
    fn valid_star_centric_launch() {
        let cfg = LaunchConfig::star_centric(8192, 10, &dev());
        assert!(cfg.validate(&dev()).is_ok());
        assert!(cfg.total_blocks() >= 8192);
        assert_eq!(cfg.threads_per_block(), 100);
        assert_eq!(cfg.warps_per_block(&dev()), 4); // 100/32 rounds up
    }

    #[test]
    fn huge_grid_wraps_into_2d() {
        let mut d = dev();
        d.max_grid_dim = Dim3::d3(100, 100, 1);
        let cfg = LaunchConfig::star_centric(250, 4, &d);
        assert!(cfg.total_blocks() >= 250);
        assert!(cfg.grid.x <= 100 && cfg.grid.y <= 100);
        assert!(cfg.validate(&d).is_ok());
    }

    #[test]
    fn roi_over_32_rejected_like_the_paper() {
        // 33×33 = 1089 threads > 1024: the §IV-D limitation.
        let cfg = LaunchConfig::star_centric(10, 33, &dev());
        let err = cfg.validate(&dev()).unwrap_err();
        assert!(err.to_string().contains("1089"));
        // 32×32 exactly at the cap is fine.
        assert!(LaunchConfig::star_centric(10, 32, &dev())
            .validate(&dev())
            .is_ok());
    }

    #[test]
    fn degenerate_rejected() {
        let cfg = LaunchConfig::new(Dim3::d1(0), Dim3::d1(32));
        assert!(cfg.validate(&dev()).is_err());
        let cfg = LaunchConfig::new(Dim3::d1(1), Dim3::d2(4, 0));
        assert!(cfg.validate(&dev()).is_err());
    }

    #[test]
    fn per_dimension_limits_enforced() {
        // 2048 in block x exceeds 1024 even if total is hypothetically ok.
        let mut d = dev();
        d.max_threads_per_block = 4096;
        let cfg = LaunchConfig::new(1u32, Dim3::d2(2048, 1));
        assert!(cfg.validate(&d).is_err());
        let cfg = LaunchConfig::new(Dim3::d3(1, 1, 2), Dim3::d1(32));
        assert!(cfg.validate(&dev()).is_err(), "grid z limit is 1");
    }

    #[test]
    fn shared_mem_limit_enforced() {
        let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(48 * 1024 + 1);
        assert!(cfg.validate(&dev()).is_err());
        let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(48 * 1024);
        assert!(cfg.validate(&dev()).is_ok());
    }

    #[test]
    fn thread_counts() {
        let cfg = LaunchConfig::new(Dim3::d2(4, 2), Dim3::d2(10, 10));
        assert_eq!(cfg.total_blocks(), 8);
        assert_eq!(cfg.total_threads(), 800);
    }
}
