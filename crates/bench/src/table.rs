//! Minimal fixed-width table printer for experiment output.

/// Print a header + aligned rows; every cell is pre-formatted text.
pub fn print_table(title: &str, header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("  {}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row);
    }
}

/// The largest entry's share of the total: how much of the work, split
/// over localities, the busiest one carried.
pub fn busiest_share(split: &[u64]) -> f64 {
    let max = split.iter().max().copied().unwrap_or(0);
    max as f64 / split.iter().sum::<u64>().max(1) as f64
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format milliseconds from a `Duration`.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting() {
        assert_eq!(super::f2(1.234), "1.23");
        assert_eq!(super::f3(0.5), "0.500");
        assert_eq!(super::ms(std::time::Duration::from_micros(1500)), "1.50");
    }
}
