//! Property-style tests of the star-field substrate.
//!
//! Hand-rolled deterministic property loops (seeded `simrng`) instead of
//! `proptest`, so the workspace tests run with no registry access.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};

use simrng::Rng64;
use starfield::magnitude::{brightness, magnitude_from_brightness, BrightnessTable};
use starfield::triad::{attitude_error, triad, Observation};
use starfield::{
    Attitude, AttitudeDynamics, Camera, FieldGenerator, SkyCatalog, SkyStar, Star, StarCatalog,
    Vec2,
};

/// Brightness is strictly decreasing and positive over the magnitude
/// range, for any positive proportionality factor.
#[test]
fn brightness_monotone() {
    let mut rng = Rng64::new(0xB1);
    for _ in 0..256 {
        let a = rng.range_f32(0.1, 1e6);
        let m1 = rng.range_f32(0.0, 15.0);
        let m2 = rng.range_f32(0.0, 15.0);
        if (m1 - m2).abs() <= 1e-3 {
            continue;
        }
        let (lo, hi) = if m1 < m2 { (m1, m2) } else { (m2, m1) };
        assert!(brightness(lo, a) > brightness(hi, a));
        assert!(brightness(hi, a) > 0.0);
    }
}

/// Brightness inverts exactly.
#[test]
fn brightness_inverse() {
    let mut rng = Rng64::new(0xB2);
    for _ in 0..256 {
        let a = rng.range_f32(0.1, 1e5);
        let m = rng.range_f32(0.0, 15.0);
        let g = brightness(m, a);
        let back = magnitude_from_brightness(g, a).unwrap();
        assert!((back - m).abs() < 1e-3, "m={m} back={back}");
    }
}

/// Table lookups sit between the brightnesses of the bin edges.
#[test]
fn table_lookup_brackets() {
    let mut rng = Rng64::new(0xB3);
    for _ in 0..128 {
        let m = rng.range_f32(0.0, 15.0);
        let bins = rng.range_usize(1, 512);
        let t = BrightnessTable::build(0.0, 15.0, bins, 1000.0);
        let bin = t.bin_of(m);
        let width = 15.0 / bins as f32;
        let lo_edge = bin as f32 * width;
        let hi_edge = lo_edge + width;
        let v = t.lookup(m);
        assert!(v <= brightness(lo_edge, 1000.0) + 1e-3);
        assert!(v >= brightness(hi_edge, 1000.0) - 1e-3);
    }
}

/// Camera projection round-trips through unprojection for any interior
/// pixel and any sane focal length.
#[test]
fn project_unproject() {
    let mut rng = Rng64::new(0xCA);
    for _ in 0..256 {
        let focal = rng.range_f64(200.0, 5000.0);
        let x = rng.range_f32(0.0, 1024.0);
        let y = rng.range_f32(0.0, 1024.0);
        let cam = Camera::new(focal, 1024, 1024).unwrap();
        let dir = cam.unproject(Vec2::new(x, y));
        let back = cam.project(dir).unwrap();
        assert!((back.x - x).abs() < 1e-2 && (back.y - y).abs() < 1e-2);
    }
}

/// Attitude rotations preserve vector length and invert exactly.
#[test]
fn attitude_is_orthonormal() {
    let mut rng = Rng64::new(0xA7);
    for _ in 0..256 {
        let ax = rng.range_f64(-1.0, 1.0);
        let ay = rng.range_f64(-1.0, 1.0);
        let az = rng.range_f64(-1.0, 1.0);
        if ax.abs() + ay.abs() + az.abs() <= 1e-6 {
            continue;
        }
        let angle = rng.range_f64(-6.0, 6.0);
        let (vx, vy, vz) = (
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
        );
        let q = Attitude::from_axis_angle([ax, ay, az], angle);
        let v = [vx, vy, vz];
        let r = q.rotate(v);
        let n0 = (vx * vx + vy * vy + vz * vz).sqrt();
        let n1 = (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt();
        assert!((n0 - n1).abs() < 1e-9);
        let back = q.conjugate().rotate(r);
        for i in 0..3 {
            assert!((back[i] - v[i]).abs() < 1e-9);
        }
    }
}

/// Pointing attitudes put the target on the boresight for all sane
/// (ra, dec, roll).
#[test]
fn pointing_hits_target() {
    let mut rng = Rng64::new(0x50);
    for _ in 0..256 {
        let ra = rng.range_f64(0.0, std::f64::consts::TAU);
        let dec = rng.range_f64(-1.4, 1.4);
        let roll = rng.range_f64(0.0, std::f64::consts::TAU);
        let q = Attitude::pointing(ra, dec, roll);
        let body = q.to_body(SkyStar::new(ra, dec, 0.0).direction());
        assert!((body[0].abs()) < 1e-8 && (body[1].abs()) < 1e-8);
        assert!((body[2] - 1.0).abs() < 1e-8);
    }
}

/// Generated fields honour their bounds and are seed-deterministic.
#[test]
fn generator_bounds() {
    let mut rng = Rng64::new(0x6E);
    for _ in 0..48 {
        let count = rng.range_usize(0, 300);
        let seed = rng.range_u64(0, 1000);
        let g = FieldGenerator::new(200, 100);
        let a = g.generate(count, seed);
        assert_eq!(a.len(), count);
        for s in a.stars() {
            assert!(s.in_image(200, 100));
            assert!((0.0..=15.0).contains(&s.mag.value()));
        }
        assert_eq!(a, g.generate(count, seed));
    }
}

/// Catalogue text serialization round-trips arbitrary finite stars.
#[test]
fn catalog_text_roundtrip() {
    let mut rng = Rng64::new(0x7E);
    for _ in 0..64 {
        let n = rng.range_usize(0, 50);
        let cat: StarCatalog = (0..n)
            .map(|_| {
                Star::new(
                    rng.range_f32(-1e6, 1e6),
                    rng.range_f32(-1e6, 1e6),
                    rng.range_f32(0.0, 15.0),
                )
            })
            .collect();
        let mut buf = Vec::new();
        cat.write_text(&mut buf).unwrap();
        let back = StarCatalog::read_text(&buf[..]).unwrap();
        assert_eq!(back, cat);
    }
}

/// TRIAD recovers any attitude from any two well-separated stars.
#[test]
fn triad_recovers_any_attitude() {
    let mut rng = Rng64::new(0x731);
    for _ in 0..256 {
        let ra = rng.range_f64(0.0, std::f64::consts::TAU);
        let dec = rng.range_f64(-1.4, 1.4);
        let roll = rng.range_f64(0.0, std::f64::consts::TAU);
        let s1_ra = rng.range_f64(0.0, std::f64::consts::TAU);
        let s1_dec = rng.range_f64(-1.2, 1.2);
        let sep = rng.range_f64(0.1, 1.0);
        let truth = Attitude::pointing(ra, dec, roll);
        let d1 = SkyStar::new(s1_ra, s1_dec, 0.0).direction();
        let d2 = SkyStar::new(s1_ra + sep, s1_dec - sep / 3.0, 0.0).direction();
        let obs = vec![
            Observation {
                body: truth.to_body(d1),
                inertial: d1,
            },
            Observation {
                body: truth.to_body(d2),
                inertial: d2,
            },
        ];
        let est = triad(&obs).unwrap();
        // The acos in attitude_error has a ~3e-8 precision floor near zero;
        // 1e-6 is far below any genuine estimation error.
        assert!(attitude_error(est, truth) < 1e-6);
    }
}

/// Attitude propagation preserves unit norm and composes: stepping
/// twice by dt equals stepping once by 2·dt for constant rate.
#[test]
fn dynamics_compose() {
    let mut rng = Rng64::new(0xD7);
    for _ in 0..256 {
        let wx = rng.range_f64(-0.2, 0.2);
        let wy = rng.range_f64(-0.2, 0.2);
        let wz = rng.range_f64(-0.2, 0.2);
        let dt = rng.range_f64(0.01, 5.0);
        if wx.abs() + wy.abs() + wz.abs() <= 1e-6 {
            continue;
        }
        let start = Attitude::pointing(1.0, 0.3, 0.2);
        let d = AttitudeDynamics::new(start, [wx, wy, wz]);
        let once = d.at(2.0 * dt);
        let mut twice = d;
        twice.step(dt);
        twice.step(dt);
        let v = [0.2, -0.4, 0.89];
        let a = once.rotate(v);
        let b = twice.attitude.rotate(v);
        for i in 0..3 {
            assert!((a[i] - b[i]).abs() < 1e-9);
        }
        // Norm preserved.
        let q = twice.attitude;
        let n = (q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z).sqrt();
        assert!((n - 1.0).abs() < 1e-9);
    }
}

/// Rectangle queries return exactly the stars inside the rectangle.
#[test]
fn rect_query_exact() {
    let mut rng = Rng64::new(0x9EC7);
    for _ in 0..128 {
        let n = rng.range_usize(0, 80);
        let stars: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.range_f32(0.0, 100.0), rng.range_f32(0.0, 100.0)))
            .collect();
        let x0 = rng.range_f32(0.0, 50.0);
        let y0 = rng.range_f32(0.0, 50.0);
        let w = rng.range_f32(1.0, 50.0);
        let h = rng.range_f32(1.0, 50.0);
        let cat: StarCatalog = stars.iter().map(|&(x, y)| Star::new(x, y, 5.0)).collect();
        let hits = cat.in_rect(x0, y0, x0 + w, y0 + h);
        let expect = stars
            .iter()
            .filter(|&&(x, y)| x >= x0 && x < x0 + w && y >= y0 && y < y0 + h)
            .count();
        assert_eq!(hits.len(), expect);
    }
}

/// A star's position and magnitude as bits, so comparisons are exact.
fn star_bits(s: &Star) -> [u32; 3] {
    [
        s.pos.x.to_bits(),
        s.pos.y.to_bits(),
        s.mag.value().to_bits(),
    ]
}

/// The full scan the zone index replaced, kept as its reference: every
/// sky star, in catalogue order, through the per-star acceptance test
/// (`direction()` → cone dot product → `to_body` → `project` → window).
fn full_scan(
    sky: &SkyCatalog,
    attitude: Attitude,
    camera: &Camera,
    margin_px: f32,
) -> Vec<[u32; 3]> {
    let margin_angle = (margin_px as f64 / camera.focal_px).atan();
    let cos_limit = (camera.diagonal_half_angle() + margin_angle).cos();
    let boresight = attitude.boresight();
    let mut out = Vec::new();
    for s in sky.stars() {
        let dir = s.direction();
        let cos = dir[0] * boresight[0] + dir[1] * boresight[1] + dir[2] * boresight[2];
        if cos < cos_limit {
            continue;
        }
        let body = attitude.to_body(dir);
        if let Some(p) = camera.project(body) {
            let in_window = p.x >= -margin_px
                && p.y >= -margin_px
                && p.x < camera.width as f32 + margin_px
                && p.y < camera.height as f32 + margin_px;
            if in_window {
                out.push(star_bits(&Star { pos: p, mag: s.mag }));
            }
        }
    }
    out
}

fn assert_view_is_scan(sky: &SkyCatalog, attitude: Attitude, camera: &Camera, margin_px: f32) {
    let got: Vec<[u32; 3]> = sky
        .view(attitude, camera, margin_px)
        .stars()
        .iter()
        .map(star_bits)
        .collect();
    let want = full_scan(sky, attitude, camera, margin_px);
    assert_eq!(
        got, want,
        "view differs from the full scan: {attitude:?}, {camera:?}, margin {margin_px}"
    );
}

/// The sky star in inertial direction `dir`, its RA shifted by `turns`.
fn star_toward(dir: [f64; 3], turns: f64, mag: f32) -> SkyStar {
    let dec = dir[2].clamp(-1.0, 1.0).asin();
    SkyStar::new(dir[1].atan2(dir[0]) + turns * TAU, dec, mag)
}

/// A star 10^8 turns out in RA whose direction lies just west of a
/// whole-degree meridian while its RA reduced by the f64 value of 2π,
/// which is 2.4e-8 rad larger, lies just east of it. Returns the star and
/// its direction's RA.
fn straddling_star(rng: &mut Rng64, dec: f64) -> (SkyStar, f64) {
    loop {
        let meridian = (rng.range_usize(1, 360) as f64).to_radians();
        let star = SkyStar::new(meridian + 1e8 * TAU, dec, 1.0);
        let dir = star.direction();
        let true_ra = dir[1].atan2(dir[0]).rem_euclid(TAU);
        if true_ra < meridian - 1e-9 && star.ra.rem_euclid(TAU) > meridian + 1e-9 {
            return (star, true_ra);
        }
    }
}

/// `SkyCatalog::view`'s zone index returns exactly what a full scan
/// returns, bit for bit and in catalogue order, for any attitude, camera
/// and margin, and for RAs and coordinates outside the usual ranges.
#[test]
fn indexed_view_matches_full_scan() {
    let mut rng = Rng64::new(0x20E5);
    // One sky shared by every trial, so its index is built once and then
    // reused: uniform on the sphere with RAs shifted up to two turns either
    // way, plus stars at both poles, directions written with |dec| > π/2
    // or an RA of many turns, and non-finite coordinates.
    let mut stars: Vec<SkyStar> = (0..1 << 13)
        .map(|_| {
            let ra = rng.range_f64(-2.0 * TAU, 3.0 * TAU);
            let dec = rng.range_f64(-1.0, 1.0).asin();
            SkyStar::new(ra, dec, rng.range_f32(0.0, 6.0))
        })
        .collect();
    for k in 0..8 {
        let ra = k as f64 * TAU / 8.0;
        stars.push(SkyStar::new(ra, FRAC_PI_2, 1.0));
        stars.push(SkyStar::new(ra - PI, -FRAC_PI_2, 1.0));
    }
    for _ in 0..64 {
        let ra = rng.range_f64(0.0, TAU);
        let dec = rng.range_f64(-FRAC_PI_2, FRAC_PI_2);
        stars.push(SkyStar::new(ra + PI, PI - dec, 2.0));
        stars.push(SkyStar::new(ra - 3.0 * PI, -PI - dec, 2.0));
        stars.push(SkyStar::new(ra + 1e8 * TAU, dec, 2.0));
        stars.push(SkyStar::new(ra - 1e17 * TAU, dec, 2.0));
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        stars.push(SkyStar::new(bad, 0.3, 1.0));
        stars.push(SkyStar::new(1.0, bad, 1.0));
    }
    let sky = SkyCatalog::from_stars(stars);

    for trial in 0..600 {
        let fov = rng.range_f64(0.01, 3.1);
        let camera = Camera::from_fov(fov, rng.range_usize(1, 1025), rng.range_usize(1, 1025))
            .expect("FOV inside (0, π)");
        let margin = if trial % 5 == 0 {
            0.0
        } else {
            rng.range_f32(0.0, 100.0)
        };
        let radius = camera.diagonal_half_angle() + (margin as f64 / camera.focal_px).atan();
        let pole = if rng.f64() < 0.5 { 1.0 } else { -1.0 };
        let roll = rng.range_f64(0.0, TAU);
        let near_zero_ra = rng.range_f64(-0.05, 0.05) + if rng.f64() < 0.5 { TAU } else { 0.0 };
        let mut on_edge = None;
        let (ra, dec) = match trial % 4 {
            // Anywhere, with the RA on either side of 0 / 2π half the time.
            0 => (
                if rng.f64() < 0.5 {
                    near_zero_ra
                } else {
                    rng.range_f64(0.0, TAU)
                },
                rng.range_f64(-1.0, 1.0).asin(),
            ),
            // Within 1° of a pole.
            1 => (
                near_zero_ra,
                pole * (FRAC_PI_2 - rng.range_f64(0.0, 1f64.to_radians())),
            ),
            // The cone's edge through a pole.
            2 => (near_zero_ra, pole * (FRAC_PI_2 - radius)),
            // A star at round coordinates on the cone's edge, at the
            // cone's northmost, southmost, eastmost or westmost point.
            _ => {
                let star_ra = (rng.range_usize(0, 1080) as f64 - 360.0).to_radians();
                let star_dec = (rng.range_usize(0, 179) as f64 - 89.0).to_radians();
                on_edge = Some(SkyStar::new(star_ra, star_dec, 1.0));
                let side = if rng.f64() < 0.5 { 1.0 } else { -1.0 };
                if rng.f64() < 0.5 {
                    (star_ra, star_dec - side * radius)
                } else {
                    let dec = (radius.cos() * star_dec.sin()).asin();
                    let half = (radius.sin() / dec.cos()).clamp(-1.0, 1.0).asin();
                    (star_ra - side * half, dec)
                }
            }
        };
        let attitude = Attitude::pointing(ra, dec, roll);
        assert_view_is_scan(&sky, attitude, &camera, margin);

        // A fresh sky crowded around this boresight, so narrow cameras see
        // stars too: up to 1.2 cone radii out, a third exactly on the
        // cone's edge, plus stars at both poles.
        let mut local: Vec<SkyStar> = (0..rng.range_usize(0, 200))
            .map(|_| {
                let off = if rng.f64() < 1.0 / 3.0 {
                    radius
                } else {
                    rng.range_f64(0.0, 1.2 * radius)
                };
                let az = rng.range_f64(0.0, TAU);
                let body = [off.sin() * az.cos(), off.sin() * az.sin(), off.cos()];
                let turns = rng.range_usize(0, 4) as f64 - 1.0;
                star_toward(attitude.rotate(body), turns, rng.range_f32(0.0, 6.0))
            })
            .collect();
        for k in 0..8 {
            let ra = k as f64 * TAU / 8.0;
            local.push(SkyStar::new(ra, FRAC_PI_2, 1.0));
            local.push(SkyStar::new(ra, -FRAC_PI_2, 1.0));
        }
        local.extend(on_edge);
        assert_view_is_scan(&SkyCatalog::from_stars(local), attitude, &camera, margin);
    }

    // The straddling star on the eastern extreme of the cone, just inside
    // it and on an image diagonal: the scan keeps it, and only the
    // cover's padding reaches the cell it is filed in.
    for _ in 0..32 {
        let dec = rng.range_f64(-1.2, 1.2);
        let (star, true_ra) = straddling_star(&mut rng, dec);
        let side = rng.range_usize(64, 1025);
        let camera =
            Camera::from_fov(rng.range_f64(0.05, 0.7), side, side).expect("FOV inside (0, π)");
        let margin = rng.range_f32(1.0, 8.0);
        let radius =
            camera.diagonal_half_angle() + (margin as f64 / camera.focal_px).atan() - 1e-12;
        let dec0 = (radius.cos() * dec.sin()).asin();
        let ra0 = true_ra - (radius.sin() / dec0.cos()).asin();
        // Rolling by `roll` turns the star's image azimuth by `-roll`.
        let body = Attitude::pointing(ra0, dec0, 0.0).to_body(star.direction());
        let attitude = Attitude::pointing(ra0, dec0, body[1].atan2(body[0]) - FRAC_PI_4);
        let one = SkyCatalog::from_stars(vec![star]);
        assert_eq!(full_scan(&one, attitude, &camera, margin).len(), 1);
        assert_view_is_scan(&one, attitude, &camera, margin);
    }

    // A clone carries the built index along.
    let copy = sky.clone();
    let camera = Camera::from_fov(0.2, 640, 480).expect("FOV inside (0, π)");
    for _ in 0..32 {
        let attitude = Attitude::pointing(
            rng.range_f64(-TAU, 2.0 * TAU),
            rng.range_f64(-1.0, 1.0).asin(),
            rng.range_f64(0.0, TAU),
        );
        assert_view_is_scan(&copy, attitude, &camera, 8.0);
        // Attitude's fields are public, so a quaternion need not be a
        // unit one; the scan then tests against a scaled boresight.
        for scale in [0.0, 0.7, 1.6] {
            let scaled = Attitude {
                w: attitude.w * scale,
                x: attitude.x * scale,
                y: attitude.y * scale,
                z: attitude.z * scale,
            };
            assert_view_is_scan(&copy, scaled, &camera, 8.0);
        }
    }

    // Empty and one-star catalogues.
    let attitude = Attitude::pointing(0.3, -0.2, 0.1);
    assert_view_is_scan(&SkyCatalog::new(), attitude, &camera, 8.0);
    for star in [
        SkyStar::new(0.3, -0.2, 1.0),
        SkyStar::new(0.3 - 2.0 * TAU, -0.2, 1.0),
        SkyStar::new(0.3 + PI, -PI + 0.2, 1.0),
        SkyStar::new(f64::NAN, -0.2, 1.0),
        SkyStar::new(0.3, f64::INFINITY, 1.0),
    ] {
        assert_view_is_scan(&SkyCatalog::from_stars(vec![star]), attitude, &camera, 8.0);
    }
}
