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

use crate::error::GpuError;
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
}

impl Texture {
    /// Binds `data` (layer-major, row-major) as a `layers × height × width`
    /// texture inside `space`, enforcing the device's texture-memory budget.
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
        let base_addr = space.alloc(layers * pitch_pow2 * pitch_pow2 * 4);
        Ok(Texture {
            base_addr,
            width,
            height,
            layers,
            pitch_pow2,
            data,
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
        let addr = self.base_addr
            + ((l * self.pitch_pow2 * self.pitch_pow2 + morton2(xi as u32, yi as u32)) * 4) as u64;
        (value, addr)
    }

    /// Row view: the stored texels `x = 0..addrs.len()` of row `y` in
    /// `layer`, with the swizzled address of each written to `addrs` —
    /// `(row[x], addrs[x]) == fetch(layer, x, y)` for every `x`. Layer and
    /// row clamp like [`Self::fetch`].
    ///
    /// # Panics
    /// Panics when `addrs` is longer than the texture width.
    #[inline]
    pub fn row(&self, layer: usize, y: i64, addrs: &mut [u64]) -> &[f32] {
        let l = layer.min(self.layers - 1);
        let yi = y.clamp(0, self.height as i64 - 1) as usize;
        let start = (l * self.height + yi) * self.width;
        let texels = &self.data[start..start + self.width][..addrs.len()];
        let row_base = self.base_addr
            + ((l * self.pitch_pow2 * self.pitch_pow2) as u64 + (spread_bits(yi as u32) << 1)) * 4;
        // `sx` walks spread_bits(x) for x = 0, 1, …: setting the odd bits
        // lets the +1 carry ripple through them to the next even bit (and
        // wrap at x = 2^16, as spread_bits' 16-bit mask does).
        let mut sx = 0u64;
        for addr in addrs.iter_mut() {
            *addr = row_base + sx * 4;
            sx = (sx | !EVEN_BITS).wrapping_add(1) & EVEN_BITS;
        }
        texels
    }
}

/// Interleaves the bits of `x` and `y` into a Morton (Z-order) index.
#[inline]
fn morton2(x: u32, y: u32) -> usize {
    (spread_bits(x) | (spread_bits(y) << 1)) as usize
}

/// The bit positions [`spread_bits`] spreads into.
const EVEN_BITS: u64 = 0x5555_5555;

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
        Texture::bind(&space, w, h, l, data, usize::MAX).unwrap()
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
        let mut addrs = [0u64; 37];
        for layer in 0..5 {
            for y in -2..9 {
                for len in [0, 1, 8, 10, 37] {
                    let row = t.row(layer, y, &mut addrs[..len]);
                    assert_eq!(row.len(), len);
                    for x in 0..len {
                        assert_eq!(
                            (row[x], addrs[x]),
                            t.fetch(layer, x as i64, y),
                            "layer {layer} row {y} texel {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn row_view_longer_than_the_texture_panics() {
        let t = tex(4, 4, 1);
        let _ = t.row(0, 0, &mut [0u64; 5]);
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
        let err = Texture::bind(&space, 32, 32, 1, data, 1024).unwrap_err();
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
        assert!(Texture::bind(&space, 0, 4, 1, vec![], usize::MAX).is_err());
        assert!(Texture::bind(&space, 2, 2, 1, vec![0.0; 3], usize::MAX).is_err());
    }
}
