//! Table III — the GPU simulator selection table, derived from the
//! *measured* inflection points of test 1 and test 2 (paper §IV-C).

use starsim_core::{Choice, InflectionPoint};

use super::format::Table;
use super::test1::{inflection_stars, Test1Row};
use super::test2::{inflection_roi, Test2Row};
use super::Context;

/// Builds the selection table from measured sweeps and reports the
/// measured inflection points alongside the paper's.
///
/// # Errors
/// When a sweep has no crossover — adaptive never beats parallel in it —
/// the error names that sweep: there is no measured point to report, and
/// the paper's own is not one.
pub fn table3(
    t1: &[Test1Row],
    t2: &[Test2Row],
    ctx: &Context,
) -> Result<(Table, InflectionPoint), String> {
    let no_crossover = |sweep: &str| {
        format!("{sweep}: adaptive never beats parallel, so there is no measured inflection point")
    };
    let stars_exp =
        inflection_stars(t1).ok_or_else(|| no_crossover("test 1 (star-count sweep, ROI 10)"))?;
    let roi = inflection_roi(t2).ok_or_else(|| no_crossover("test 2 (ROI sweep, 8192 stars)"))?;
    let point = InflectionPoint {
        stars: 1usize << stars_exp,
        roi_side: roi,
        ..InflectionPoint::default()
    };

    let mut t = Table::new(vec![
        "turning_point",
        "number_of_stars",
        "size_of_roi",
        "simulator_choice",
    ]);
    let rows = [
        (
            "row1",
            "=",
            "<",
            point.choose(point.stars, point.roi_side - 1),
        ),
        (
            "row2",
            "<",
            "=",
            point.choose(point.stars - 1, point.roi_side),
        ),
        (
            "row3",
            "=",
            ">",
            point.choose(point.stars, point.roi_side + 1),
        ),
        (
            "row4",
            ">",
            "=",
            point.choose(point.stars + 1, point.roi_side),
        ),
    ];
    for (label, s, r, choice) in rows {
        t.row(vec![
            label.to_string(),
            s.to_string(),
            r.to_string(),
            format!("{choice:?}"),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("table3.csv"));
    Ok((t, point))
}

/// Renders the measured-vs-paper inflection summary line.
pub fn summary(point: &InflectionPoint) -> String {
    format!(
        "measured inflection: stars = {} (paper: 2^13 = 8192), ROI side = {} (paper: 10)",
        point.stars, point.roi_side
    )
}

/// Sanity: the derived table must reproduce the paper's choices.
#[cfg_attr(not(test), allow(dead_code))] // used by the test suite
pub fn choices_match_paper(point: &InflectionPoint) -> bool {
    point.choose(point.stars, point.roi_side - 1) == Choice::Parallel
        && point.choose(point.stars - 1, point.roi_side) == Choice::Parallel
        && point.choose(point.stars, point.roi_side + 1) == Choice::Adaptive
        && point.choose(point.stars + 1, point.roi_side) == Choice::Adaptive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_reproduces_table_iii() {
        let p = InflectionPoint::default();
        assert!(choices_match_paper(&p));
        assert!(summary(&p).contains("8192"));
    }

    fn test1_row(exponent: u32, par_app: f64, ada_app: f64) -> Test1Row {
        Test1Row {
            exponent,
            par_app,
            ada_app,
            ..Default::default()
        }
    }

    fn test2_row(roi_side: usize, par_app: f64, ada_app: f64) -> Test2Row {
        Test2Row {
            roi_side,
            par_app,
            ada_app,
            ..Default::default()
        }
    }

    /// A sweep in which adaptive never wins has no inflection point: the
    /// table is an error naming that sweep, not the paper's point.
    #[test]
    fn a_sweep_without_crossover_is_an_error() {
        let ctx = Context {
            out_dir: std::env::temp_dir().join("starsim_table3"),
            ..Default::default()
        };
        let t1_never = [test1_row(11, 1.0, 2.0), test1_row(12, 1.0, 1.5)];
        let t1_crosses = [test1_row(12, 1.0, 1.5), test1_row(13, 1.0, 0.5)];
        let t2_never = [test2_row(8, 1.0, 2.0), test2_row(12, 1.0, 1.0)];
        let t2_crosses = [test2_row(8, 1.0, 2.0), test2_row(12, 1.0, 0.5)];

        let err = table3(&t1_never, &t2_crosses, &ctx).unwrap_err();
        assert!(err.starts_with("test 1 "), "{err}");
        let err = table3(&t1_crosses, &t2_never, &ctx).unwrap_err();
        assert!(err.starts_with("test 2 "), "{err}");

        let (_, point) = table3(&t1_crosses, &t2_crosses, &ctx).unwrap();
        assert_eq!((point.stars, point.roi_side), (1 << 13, 12));
    }
}
