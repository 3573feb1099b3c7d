//! Texture memory: layered 2-D `f32` textures with point sampling, clamp
//! addressing, and a block-linear (Morton) internal layout.
//!
//! The adaptive simulator binds its lookup table to texture memory for two
//! reasons the paper gives (§III-C): texture fetches "capitalize 2D
//! locality", and the texture cache speeds up repeated accesses. The 2-D
//! locality benefit comes from the hardware storing texels along a
//! space-filling curve so that spatially close texels share cache lines —
//! we reproduce that with a Morton-order address swizzle, which the cache
//! simulator then sees.

use std::sync::OnceLock;

use crate::error::GpuError;
use crate::memory::cache::LineWalk;
use crate::memory::global::AddressSpace;

/// A layered 2-D texture of `f32` texels (a CUDA 2-D layered texture, or
/// equivalently the paper's 3-D lookup table bound as magnitude-layer ×
/// ROI-row × ROI-column).
#[derive(Debug)]
pub struct Texture {
    base_addr: u64,
    width: usize,
    height: usize,
    layers: usize,
    /// Power-of-two pitch used by the Morton swizzle.
    pitch_pow2: usize,
    /// Texel storage, layer-major, row-major inside a layer (the logical
    /// view; addresses are swizzled separately).
    data: Vec<f32>,
    /// Texture-cache line size of the binding device.
    line_bytes: usize,
    /// Lazily built layer walks (see [`Self::walk`]): one per layer phase
    /// within a cache line — a single template when layers are whole
    /// lines.
    walks: Box<[OnceLock<LineWalk>]>,
}

impl Texture {
    /// Binds `data` (layer-major, row-major) as a `layers × height × width`
    /// texture inside `space`, enforcing the device's texture-memory budget,
    /// for a device whose texture cache has `line_bytes` lines.
    ///
    /// `budget_bytes` is the remaining texture memory; binding fails with
    /// [`GpuError::OutOfMemory`] when exceeded (paper §IV-D: the lookup
    /// table must "be successfully bound into the GPU texture memory").
    pub fn bind(
        space: &AddressSpace,
        width: usize,
        height: usize,
        layers: usize,
        data: Vec<f32>,
        budget_bytes: usize,
        line_bytes: usize,
    ) -> Result<Self, GpuError> {
        if width == 0 || height == 0 || layers == 0 {
            return Err(GpuError::Other(format!(
                "texture dimensions must be positive: {layers}×{height}×{width}"
            )));
        }
        if data.len() != width * height * layers {
            return Err(GpuError::TransferMismatch(format!(
                "texture data has {} texels, dimensions imply {}",
                data.len(),
                width * height * layers
            )));
        }
        let bytes = data.len() * 4;
        if bytes > budget_bytes {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: budget_bytes,
                space: "texture",
            });
        }
        let pitch_pow2 = width.max(height).next_power_of_two();
        // Reserve swizzled (padded) address range so Morton addresses of
        // distinct layers never collide.
        let layer_bytes = pitch_pow2 * pitch_pow2 * 4;
        let base_addr = space.alloc(layers * layer_bytes);
        let templates = (line_bytes / layer_bytes).clamp(1, layers);
        Ok(Texture {
            base_addr,
            width,
            height,
            layers,
            pitch_pow2,
            data,
            line_bytes,
            walks: (0..templates).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Texture width (texels per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Texture height (rows per layer).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Layer count.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Payload size in bytes (excluding swizzle padding).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Point-sampled fetch with clamp addressing: out-of-range coordinates
    /// clamp to the border texel, like CUDA's `cudaAddressModeClamp`.
    /// Returns `(value, swizzled device address)`; the executor feeds the
    /// address to the worker's texture cache.
    #[inline]
    pub fn fetch(&self, layer: usize, x: i64, y: i64) -> (f32, u64) {
        let l = layer.min(self.layers - 1);
        let xi = x.clamp(0, self.width as i64 - 1) as usize;
        let yi = y.clamp(0, self.height as i64 - 1) as usize;
        let value = self.data[(l * self.height + yi) * self.width + xi];
        (value, self.addr(l, xi, yi))
    }

    /// Swizzled device address of texel `(x, y)` of layer `l`.
    #[inline]
    fn addr(&self, l: usize, x: usize, y: usize) -> u64 {
        self.base_addr
            + ((l * self.pitch_pow2 * self.pitch_pow2 + morton2(x as u32, y as u32)) * 4) as u64
    }

    /// Row view: the stored texels of row `y` in `layer` —
    /// `row(layer, y)[x] == fetch(layer, x, y).0` for every `x`. Layer and
    /// row clamp like [`Self::fetch`].
    #[inline]
    pub fn row(&self, layer: usize, y: i64) -> &[f32] {
        let l = layer.min(self.layers - 1);
        let yi = y.clamp(0, self.height as i64 - 1) as usize;
        let start = (l * self.height + yi) * self.width;
        &self.data[start..start + self.width]
    }

    /// The texture cache's view of fetching every texel of `layer` in
    /// row-major order (`fetch(layer, x, y)` for `y` in `0..height`, `x`
    /// in `0..width`): a walk plus the line offset to replay it at, for
    /// [`crate::memory::cache::CacheSim::access_walk`]. `None` when
    /// `line_bytes` is not the binding device's line size. The layer
    /// clamps like [`Self::fetch`].
    ///
    /// Layers are `pitch² · 4` bytes apart, a power of two like the line
    /// size. When layers are whole lines, layer `l` sits `l · pitch² · 4 /
    /// line_bytes` lines past layer 0; when `k` layers share each line,
    /// layer `l` sits `l / k` lines past layer `l mod k`, the same
    /// (rounded-down) quotient. So one walk per layer phase within a line —
    /// one per texture when layers are whole lines — serves every layer at
    /// that line offset. Walks are built on first use, in O(width ·
    /// height).
    pub fn walk(&self, layer: usize, line_bytes: usize) -> Option<(&LineWalk, u64)> {
        if line_bytes != self.line_bytes {
            return None;
        }
        let l = layer.min(self.layers - 1);
        let t = l % self.walks.len();
        let walk = self.walks[t].get_or_init(|| {
            let texels = (0..self.height).flat_map(|y| (0..self.width).map(move |x| (x, y)));
            LineWalk::new(texels.map(|(x, y)| self.addr(t, x, y)), line_bytes)
        });
        let layer_bytes = self.pitch_pow2 * self.pitch_pow2 * 4;
        Some((walk, (l * layer_bytes / line_bytes) as u64))
    }
}

/// Interleaves the bits of `x` and `y` into a Morton (Z-order) index.
#[inline]
fn morton2(x: u32, y: u32) -> usize {
    (spread_bits(x) | (spread_bits(y) << 1)) as usize
}

/// Spreads the low 16 bits of `v` into the even bit positions.
#[inline]
fn spread_bits(v: u32) -> u64 {
    let mut v = v as u64 & 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex(w: usize, h: usize, l: usize) -> Texture {
        let space = AddressSpace::new();
        let data: Vec<f32> = (0..w * h * l).map(|i| i as f32).collect();
        Texture::bind(&space, w, h, l, data, usize::MAX, 128).unwrap()
    }

    #[test]
    fn fetch_returns_logical_values() {
        let t = tex(4, 3, 2);
        assert_eq!(t.fetch(0, 0, 0).0, 0.0);
        assert_eq!(t.fetch(0, 3, 2).0, 11.0);
        assert_eq!(t.fetch(1, 0, 0).0, 12.0);
        assert_eq!(t.fetch(1, 2, 1).0, 12.0 + 6.0);
        assert_eq!((t.width(), t.height(), t.layers()), (4, 3, 2));
        assert_eq!(t.size_bytes(), 4 * 3 * 2 * 4);
    }

    #[test]
    fn clamp_addressing() {
        let t = tex(4, 4, 1);
        assert_eq!(t.fetch(0, -5, 0).0, t.fetch(0, 0, 0).0);
        assert_eq!(t.fetch(0, 9, 2).0, t.fetch(0, 3, 2).0);
        assert_eq!(t.fetch(0, 1, -1).0, t.fetch(0, 1, 0).0);
        assert_eq!(t.fetch(5, 1, 1).0, t.fetch(0, 1, 1).0, "layer clamps too");
    }

    #[test]
    fn row_view_matches_per_texel_fetch() {
        let t = tex(37, 7, 3);
        for layer in 0..5 {
            for y in -2..9 {
                let row = t.row(layer, y);
                assert_eq!(row.len(), 37);
                for (x, &v) in row.iter().enumerate() {
                    assert_eq!(
                        v,
                        t.fetch(layer, x as i64, y).0,
                        "layer {layer} row {y} texel {x}"
                    );
                }
            }
        }
    }

    /// A layer walk is the cache's view of `fetch`ing the layer in
    /// row-major order, whether it is a layer's own walk or a template
    /// shared with other layers: ROI 10 and 19 (whole-line layers, one
    /// template), ROI 3 (two 16-texel layers share one 128-B line), ROI 1
    /// (32 one-texel layers per line), a 32-B line (ROI 3 spans two), and
    /// 512-B lines from a base half a line in, where layers 4–7 of each
    /// eight start in the next line.
    #[test]
    fn layer_walks_follow_fetch_in_row_major_order() {
        let cases = [
            (10, 5, 128, 0),
            (19, 3, 128, 0),
            (3, 5, 128, 0),
            (1, 40, 128, 0),
            (3, 5, 32, 0),
            (3, 12, 512, 256),
        ];
        for (side, layers, line, skew) in cases {
            let space = AddressSpace::new();
            space.alloc(skew);
            let data = vec![0.0; side * side * layers];
            let t = Texture::bind(&space, side, side, layers, data, usize::MAX, line).unwrap();
            let line = line as u64;
            for layer in 0..layers + 2 {
                let (walk, offset) = t.walk(layer, line as usize).unwrap();
                let fetched = (0..side as i64)
                    .flat_map(|y| (0..side as i64).map(move |x| (x, y)))
                    .map(|(x, y)| t.fetch(layer, x, y).1 - offset * line);
                assert_eq!(
                    *walk,
                    LineWalk::new(fetched, line as usize),
                    "ROI {side}, {line}-B lines, layer {layer}"
                );
            }
            assert!(
                t.walk(0, 2 * line as usize).is_none(),
                "another device's lines"
            );
        }
        let roi3 = tex(3, 3, 2);
        assert_eq!(roi3.fetch(0, 0, 0).1 / 128, roi3.fetch(1, 2, 2).1 / 128);
    }

    #[test]
    fn morton_addresses_are_unique_per_texel() {
        let t = tex(8, 8, 2);
        let mut seen = std::collections::HashSet::new();
        for l in 0..2 {
            for y in 0..8 {
                for x in 0..8 {
                    let (_, addr) = t.fetch(l, x, y);
                    assert!(seen.insert(addr), "duplicate address for ({l},{x},{y})");
                }
            }
        }
    }

    #[test]
    fn morton_preserves_2d_locality() {
        // A 2×2 texel quad must span fewer distinct 64-byte lines than a
        // row-major layout would for tall quads: specifically, the 4 texels
        // of an aligned 4×4 block fit one 64-byte line (16 texels × 4 B).
        let t = tex(16, 16, 1);
        let line = |addr: u64| addr / 64;
        let base = t.fetch(0, 0, 0).1;
        for y in 0..4 {
            for x in 0..4 {
                let (_, addr) = t.fetch(0, x, y);
                assert_eq!(line(addr), line(base), "4×4 block should share a line");
            }
        }
        // Whereas rows 0 and 8 are far apart.
        assert_ne!(line(t.fetch(0, 0, 8).1), line(base));
    }

    #[test]
    fn spread_bits_known_values() {
        assert_eq!(spread_bits(0b11), 0b101);
        assert_eq!(spread_bits(0b101), 0b10001);
        assert_eq!(morton2(1, 0), 0b01);
        assert_eq!(morton2(0, 1), 0b10);
        assert_eq!(morton2(3, 3), 0b1111);
    }

    #[test]
    fn budget_enforced() {
        let space = AddressSpace::new();
        let data = vec![0.0f32; 1024];
        let err = Texture::bind(&space, 32, 32, 1, data, 1024, 128).unwrap_err();
        match err {
            GpuError::OutOfMemory {
                requested,
                available,
                space,
            } => {
                assert_eq!(requested, 4096);
                assert_eq!(available, 1024);
                assert_eq!(space, "texture");
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
    }

    #[test]
    fn dimension_validation() {
        let space = AddressSpace::new();
        assert!(Texture::bind(&space, 0, 4, 1, vec![], usize::MAX, 128).is_err());
        assert!(Texture::bind(&space, 2, 2, 1, vec![0.0; 3], usize::MAX, 128).is_err());
    }
}
