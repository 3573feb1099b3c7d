//! The star record used throughout the simulators.

use crate::magnitude::Magnitude;
use crate::vec2::Vec2;

/// A star projected onto the image plane.
///
/// This is the record format the paper's benchmarks use: "The star
/// information at image plane generates in such format file by configuring
/// the two parameters: the magnitude of the star, the 2-dimensional
/// coordinate in image plane" (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Star {
    /// Position on the image plane, in pixels. May be sub-pixel.
    pub pos: Vec2,
    /// Catalogue magnitude (lower = brighter).
    pub mag: Magnitude,
}

impl Star {
    /// Creates a star at `(x, y)` with magnitude `mag`.
    #[inline]
    pub fn new(x: f32, y: f32, mag: f32) -> Self {
        Star {
            pos: Vec2::new(x, y),
            mag: Magnitude(mag),
        }
    }

    /// Brightness under the paper's law with proportionality factor `A`.
    #[inline]
    pub fn brightness(&self, a_factor: f32) -> f32 {
        self.mag.brightness(a_factor)
    }

    /// A copy of this star snapped to the nearest integer pixel centre.
    ///
    /// Used by the adaptive simulator when the lookup table has no sub-pixel
    /// phase bins: the table stores the PSF relative to a pixel-centred star.
    #[inline]
    pub fn snapped(&self) -> Star {
        Star {
            pos: self.pos.round(),
            mag: self.mag,
        }
    }

    /// True when the star's centre lies inside a `width × height` image.
    #[inline]
    pub fn in_image(&self, width: usize, height: usize) -> bool {
        self.pos.x >= 0.0
            && self.pos.y >= 0.0
            && self.pos.x < width as f32
            && self.pos.y < height as f32
    }
}

/// A star on the celestial sphere, before projection onto an image plane.
///
/// Right ascension and declination are in radians. This is the substrate
/// record for the FOV-retrieval pipeline the paper references (\[4\]) but does
/// not describe; see [`crate::fov`]. A star with a non-finite coordinate
/// has a NaN [`direction`](SkyStar::direction) and is never in view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyStar {
    /// Right ascension, radians. Any finite value is accepted: `ra` and
    /// `ra + 2πk` are the same direction, and the FOV index reduces it
    /// modulo 2π.
    pub ra: f64,
    /// Declination, radians in `[−π/2, π/2]`.
    pub dec: f64,
    /// Catalogue magnitude.
    pub mag: Magnitude,
}

impl SkyStar {
    /// Creates a sky star; `ra`/`dec` are radians.
    #[inline]
    pub fn new(ra: f64, dec: f64, mag: f32) -> Self {
        SkyStar {
            ra,
            dec,
            mag: Magnitude(mag),
        }
    }

    /// Unit direction vector in the equatorial frame (x toward vernal
    /// equinox, z toward the north celestial pole).
    #[inline]
    pub fn direction(&self) -> [f64; 3] {
        let (sd, cd) = self.dec.sin_cos();
        let (sr, cr) = self.ra.sin_cos();
        [cd * cr, cd * sr, sd]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_construction_and_brightness() {
        let s = Star::new(100.5, 200.25, 3.0);
        assert_eq!(s.pos, Vec2::new(100.5, 200.25));
        assert_eq!(s.mag.value(), 3.0);
        let g = s.brightness(1000.0);
        assert!((g - crate::magnitude::brightness(3.0, 1000.0)).abs() < 1e-6);
    }

    #[test]
    fn snapping_rounds_to_pixel_centres() {
        let s = Star::new(10.6, 20.4, 5.0);
        let snapped = s.snapped();
        assert_eq!(snapped.pos, Vec2::new(11.0, 20.0));
        assert_eq!(snapped.mag, s.mag);
    }

    #[test]
    fn in_image_bounds() {
        let s = Star::new(0.0, 0.0, 1.0);
        assert!(s.in_image(10, 10));
        assert!(!Star::new(-0.1, 5.0, 1.0).in_image(10, 10));
        assert!(!Star::new(10.0, 5.0, 1.0).in_image(10, 10));
        assert!(Star::new(9.99, 9.99, 1.0).in_image(10, 10));
    }

    #[test]
    fn sky_star_direction_is_unit() {
        for (ra, dec) in [(0.0, 0.0), (1.0, 0.5), (4.0, -1.2), (6.3, 1.57)] {
            let d = SkyStar::new(ra, dec, 3.0).direction();
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sky_star_cardinal_directions() {
        let vernal = SkyStar::new(0.0, 0.0, 0.0).direction();
        assert!((vernal[0] - 1.0).abs() < 1e-12);
        let pole = SkyStar::new(0.0, std::f64::consts::FRAC_PI_2, 0.0).direction();
        assert!((pole[2] - 1.0).abs() < 1e-12);
    }
}
