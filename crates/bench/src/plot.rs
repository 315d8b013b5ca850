//! Terminal plots: the figure experiments render their series as ASCII charts
//! next to the tables, so shapes are visible without leaving the terminal.

/// One named series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points, any order (sorted internally by x).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series from a label and points.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.to_string(),
            points,
        }
    }
}

const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@'];

/// Render series as a log-x/log-y scatter chart of `width`×`height` cells.
/// Distinct series use distinct glyphs; a legend follows the chart.
pub fn ascii_plot(title: &str, series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 4, "chart too small");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let xs: Vec<f64> = all.iter().map(|p| p.0.max(1e-30).log10()).collect();
    let ys: Vec<f64> = all.iter().map(|p| p.1.max(1e-30).log10()).collect();
    let (x0, x1) = bounds(&xs);
    let (y0, y1) = bounds(&ys);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = scale(x.max(1e-30).log10(), x0, x1, width - 1);
            let cy = height - 1 - scale(y.max(1e-30).log10(), y0, y1, height - 1);
            grid[cy][cx] = g;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{title}  (log-log)\n"));
    let y_hi = sig3(10f64.powf(y1));
    let y_lo = sig3(10f64.powf(y0));
    let lab_w = y_hi.len().max(y_lo.len());
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{y_hi:>lab_w$}")
        } else if r == height - 1 {
            format!("{y_lo:>lab_w$}")
        } else {
            " ".repeat(lab_w)
        };
        out.push_str(&format!("{label} |{}|\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!(
        "{} +{}+\n{} {:<w$}{:>w2$}\n",
        " ".repeat(lab_w),
        "-".repeat(width),
        " ".repeat(lab_w),
        sig3(10f64.powf(x0)),
        sig3(10f64.powf(x1)),
        w = width / 2,
        w2 = width - width / 2,
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out
}

/// Three-significant-figure formatting (Rust has no `%g`).
fn sig3(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    if (-2..5).contains(&mag) {
        let decimals = (2 - mag).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.2e}")
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn scale(v: f64, lo: f64, hi: f64, max_idx: usize) -> usize {
    (((v - lo) / (hi - lo)) * max_idx as f64)
        .round()
        .clamp(0.0, max_idx as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_and_legend() {
        let s = vec![
            Series::new("tuned", vec![(2.0, 100.0), (64.0, 1000.0)]),
            Series::new("mpi", vec![(2.0, 5000.0), (64.0, 40000.0)]),
        ];
        let p = ascii_plot("barrier", &s, 40, 10);
        assert!(p.contains("barrier"));
        assert!(p.contains("* tuned"));
        assert!(p.contains("o mpi"));
        assert!(p.matches('*').count() >= 2);
        // Higher series occupies higher rows than the lower one at same x.
        let rows: Vec<&str> = p.lines().collect();
        let first_o = rows.iter().position(|r| r.contains('o')).unwrap();
        let first_star = rows.iter().position(|r| r.contains('*')).unwrap();
        assert!(first_o < first_star, "mpi sits above tuned on the chart");
    }

    #[test]
    fn empty_series_graceful() {
        let p = ascii_plot("x", &[Series::new("e", vec![])], 20, 5);
        assert!(p.contains("no data"));
    }

    #[test]
    fn constant_series_does_not_panic() {
        let s = vec![Series::new(
            "flat",
            vec![(1.0, 7.0), (2.0, 7.0), (4.0, 7.0)],
        )];
        let p = ascii_plot("flat", &s, 30, 6);
        assert!(p.matches('*').count() >= 3);
    }

    #[test]
    #[should_panic(expected = "chart too small")]
    fn tiny_chart_rejected() {
        ascii_plot("t", &[], 4, 2);
    }
}
