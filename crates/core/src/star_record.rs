//! The device-side star record uploaded to GPU global memory, and the
//! staging every one-shot GPU simulator shares.

use gpusim::{GlobalAtomicF32, GlobalBuffer, MemcpyKind, VirtualGpu};
use starfield::{Star, StarCatalog};
use starimage::ImageF32;

use crate::config::SimConfig;
use crate::error::SimError;

/// A star as laid out in device memory: 12 contiguous bytes, matching the
/// `star* starArray` parameter of the paper's kernel (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct DeviceStar {
    /// Catalogue magnitude.
    pub mag: f32,
    /// Image-plane x, pixels.
    pub x: f32,
    /// Image-plane y, pixels.
    pub y: f32,
}

impl From<&Star> for DeviceStar {
    fn from(s: &Star) -> Self {
        DeviceStar {
            mag: s.mag.value(),
            x: s.pos.x,
            y: s.pos.y,
        }
    }
}

/// Converts a host catalogue into the device array layout.
pub fn to_device_stars(stars: &[Star]) -> Vec<DeviceStar> {
    stars.iter().map(DeviceStar::from).collect()
}

/// One frame of a one-shot GPU simulator: uploads `catalog` and a zeroed
/// image, runs `launch` over them, and downloads the image. Both transfers
/// go through `gpu`'s fault plan, so an injected allocation or transfer
/// fault surfaces as a typed error. Returns the image, what `launch`
/// returned, and the modeled star upload, image upload and download,
/// summed in that order, seconds.
pub(crate) fn render_once<T>(
    gpu: &VirtualGpu,
    config: &SimConfig,
    catalog: &StarCatalog,
    launch: impl FnOnce(&GlobalBuffer<DeviceStar>, &GlobalAtomicF32) -> Result<T, SimError>,
) -> Result<(ImageF32, T, f64), SimError> {
    let (stars, star_upload_s) = gpu.try_upload(to_device_stars(catalog.stars()))?;
    let image = gpu.alloc_atomic_f32(config.pixels());
    // The paper transfers the pixel array to the device before the
    // kernel (its CUDA 3.2 flow); model that upload as an image-sized
    // host→device copy.
    let image_upload_s = gpu
        .transfer_model()
        .time(MemcpyKind::HostToDevice, config.pixels() * 4);
    let launched = launch(&stars, &image)?;
    let (pixels, download_s) = gpu.try_download(&image)?;
    Ok((
        ImageF32::from_data(config.width, config.height, pixels),
        launched,
        star_upload_s + image_upload_s + download_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_12_bytes() {
        assert_eq!(std::mem::size_of::<DeviceStar>(), 12);
    }

    #[test]
    fn conversion_preserves_fields() {
        let s = Star::new(10.5, 20.25, 3.75);
        let d = DeviceStar::from(&s);
        assert_eq!((d.mag, d.x, d.y), (3.75, 10.5, 20.25));
        let v = to_device_stars(&[s, Star::new(1.0, 2.0, 3.0)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[1].x, 1.0);
    }
}
