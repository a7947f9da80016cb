//! Plain-text reporters: markdown tables to stdout, CSV files to a results
//! directory. No serialization dependency — the formats are trivial.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::runner::{Fig8Row, Table1Row};

/// Formats Table I as a markdown table in the paper's column order.
pub fn table1_markdown(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| Nodes | Rings | Core₆ | Delay₆ | Dev₆ | Bound₆ | CPU₆ s | Core₂ | Delay₂ | Dev₂ | Bound₂ | CPU₂ s |\n",
    );
    out.push_str(
        "|------:|------:|------:|-------:|-----:|-------:|-------:|------:|-------:|-----:|-------:|-------:|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.3} | {:.2} | {:.2} | {:.4} | {:.2} | {:.3} | {:.2} | {:.2} | {:.4} |\n",
            r.n,
            r.rings,
            r.deg6.core,
            r.deg6.delay,
            r.deg6.dev,
            r.deg6.bound,
            r.deg6.cpu_sec,
            r.deg2.core,
            r.deg2.delay,
            r.deg2.dev,
            r.deg2.bound,
            r.deg2.cpu_sec,
        ));
    }
    out
}

/// Formats Table I as CSV with a header row.
pub fn table1_csv(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "nodes,rings,lower_bound,core6,delay6,dev6,bound6,cpu6,core2,delay2,dev2,bound2,cpu2\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.n,
            r.rings,
            r.lower_bound,
            r.deg6.core,
            r.deg6.delay,
            r.deg6.dev,
            r.deg6.bound,
            r.deg6.cpu_sec,
            r.deg2.core,
            r.deg2.delay,
            r.deg2.dev,
            r.deg2.bound,
            r.deg2.cpu_sec,
        ));
    }
    out
}

/// Formats the Figure-8 rows as a markdown table.
pub fn fig8_markdown(rows: &[Fig8Row]) -> String {
    let mut out =
        String::from("| Nodes | Rings | Delay₁₀ | Dev₁₀ | Delay₂ | Dev₂ | CPU₁₀ s | CPU₂ s |\n");
    out.push_str("|------:|------:|--------:|------:|-------:|-----:|--------:|-------:|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.2} | {:.3} | {:.2} | {:.3} | {:.2} | {:.4} | {:.4} |\n",
            r.n, r.rings, r.delay10, r.dev10, r.delay2, r.dev2, r.cpu_sec10, r.cpu_sec2,
        ));
    }
    out
}

/// Formats the Figure-8 rows as CSV.
pub fn fig8_csv(rows: &[Fig8Row]) -> String {
    let mut out = String::from("nodes,rings,delay10,dev10,delay2,dev2,cpu10,cpu2\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.n, r.rings, r.delay10, r.dev10, r.delay2, r.dev2, r.cpu_sec10, r.cpu_sec2,
        ));
    }
    out
}

/// A generic numeric series table: first column plus named series, used by
/// the figure binaries (delay vs. bound, rings vs. n, …).
pub fn series_markdown(x_name: &str, names: &[&str], rows: &[(f64, Vec<f64>)]) -> String {
    let mut out = format!("| {x_name} |");
    for n in names {
        out.push_str(&format!(" {n} |"));
    }
    out.push('\n');
    out.push_str("|---:|");
    for _ in names {
        out.push_str("---:|");
    }
    out.push('\n');
    for (x, ys) in rows {
        out.push_str(&format!("| {x} |"));
        for y in ys {
            out.push_str(&format!(" {y:.4} |"));
        }
        out.push('\n');
    }
    out
}

/// CSV counterpart of [`series_markdown`].
pub fn series_csv(x_name: &str, names: &[&str], rows: &[(f64, Vec<f64>)]) -> String {
    let mut out = String::from(x_name);
    for n in names {
        out.push(',');
        out.push_str(n);
    }
    out.push('\n');
    for (x, ys) in rows {
        out.push_str(&format!("{x}"));
        for y in ys {
            out.push_str(&format!(",{y}"));
        }
        out.push('\n');
    }
    out
}

/// Renders an observability registry as a markdown section: one table of
/// span timings, one of counters, one of histogram summaries (empty
/// string when the registry is empty). The experiment binaries append
/// this to their reports when `OMT_TRACE` recording is on.
pub fn metrics_markdown(reg: &omt_obs::Registry) -> String {
    if reg.is_empty() {
        return String::new();
    }
    let mut out = String::from("## Metrics\n");
    if reg.spans().next().is_some() {
        out.push_str("\n| Span | Count | Total ms | Mean µs | Min µs | Max µs |\n");
        out.push_str("|:-----|------:|---------:|--------:|-------:|-------:|\n");
        for (name, s) in reg.spans() {
            let mean_us = if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 / s.count as f64 / 1e3
            };
            out.push_str(&format!(
                "| {name} | {} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                s.count,
                s.total_ns as f64 / 1e6,
                mean_us,
                s.min_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            ));
        }
    }
    if reg.counters().next().is_some() {
        out.push_str("\n| Counter | Value |\n|:--------|------:|\n");
        for (name, v) in reg.counters() {
            out.push_str(&format!("| {name} | {v} |\n"));
        }
    }
    if reg.hists().next().is_some() {
        out.push_str("\n| Histogram | Count | Mean | Max ≤ |\n");
        out.push_str("|:----------|------:|-----:|------:|\n");
        for (name, h) in reg.hists() {
            out.push_str(&format!(
                "| {name} | {} | {:.2} | {} |\n",
                h.count,
                h.mean(),
                h.max_bucket_edge(),
            ));
        }
    }
    out
}

/// Writes `contents` to `dir/name`, creating the directory if needed, and
/// returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_result(dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// With `OMT_TRACE` recording on, prints this thread's metric snapshot
/// ([`metrics_markdown`]) after a binary's report and flushes it under
/// `label` (to the trace file when `OMT_TRACE` names a path); a no-op
/// otherwise.
pub fn print_metrics(label: &str) {
    if omt_obs::enabled() {
        let reg = omt_obs::take_local();
        println!("{}", metrics_markdown(&reg));
        omt_obs::merge_into_local(reg);
        let _ = omt_obs::flush(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DegreeStats;

    fn sample_row() -> Table1Row {
        Table1Row {
            n: 100,
            rings: 3.61,
            lower_bound: 0.99,
            deg6: DegreeStats {
                core: 1.53,
                delay: 1.852,
                dev: 0.20,
                bound: 7.18,
                cpu_sec: 0.002,
            },
            deg2: DegreeStats {
                core: 2.21,
                delay: 2.634,
                dev: 0.31,
                bound: 10.74,
                cpu_sec: 0.0015,
            },
        }
    }

    #[test]
    fn markdown_contains_paper_values() {
        let md = table1_markdown(&[sample_row()]);
        assert!(md.contains("| 100 | 3.61 | 1.53 | 1.852 | 0.20 | 7.18 |"));
        assert!(md.contains("2.634"));
    }

    #[test]
    fn csv_round_numbers() {
        let csv = table1_csv(&[sample_row()]);
        assert!(csv.starts_with("nodes,"));
        assert!(csv.contains("100,3.61,0.99,1.53,1.852,0.2,7.18"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn series_tables() {
        let rows = vec![(100.0, vec![1.0, 2.0]), (1000.0, vec![0.5, 1.5])];
        let md = series_markdown("n", &["a", "b"], &rows);
        assert!(md.contains("| n | a | b |"));
        assert!(md.contains("| 1000 | 0.5000 | 1.5000 |"));
        let csv = series_csv("n", &["a", "b"], &rows);
        assert!(csv.starts_with("n,a,b\n"));
        assert!(csv.contains("1000,0.5,1.5"));
    }

    #[test]
    fn fig8_formatting() {
        let rows = vec![Fig8Row {
            n: 1000,
            rings: 5.0,
            delay10: 1.5,
            dev10: 0.1,
            delay2: 2.0,
            dev2: 0.2,
            cpu_sec10: 0.01,
            cpu_sec2: 0.02,
        }];
        assert!(fig8_markdown(&rows).contains("| 1000 | 5.00 | 1.500 |"));
        assert!(fig8_csv(&rows).contains("1000,5,1.5,0.1,2,0.2"));
    }

    #[test]
    fn metrics_markdown_renders_all_sections() {
        let mut reg = omt_obs::Registry::default();
        assert_eq!(metrics_markdown(&reg), "");
        reg.record_span("phase/a", 1_500_000);
        reg.add_counter("events", 42);
        reg.record_observation("sizes", 8);
        let md = metrics_markdown(&reg);
        assert!(md.contains("## Metrics"));
        assert!(md.contains("| phase/a | 1 | 1.500 |"));
        assert!(md.contains("| events | 42 |"));
        assert!(md.contains("| sizes | 1 | 8.00 |"));
    }

    #[test]
    fn write_result_creates_dirs() {
        let dir = std::env::temp_dir().join("omt_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_result(&dir.join("nested"), "t.csv", "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
