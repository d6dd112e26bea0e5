//! Shared infrastructure for the `experiments` and `perf_telemetry`
//! binaries: workload constructors and plain-text table rendering.
//!
//! The `experiments` binary regenerates every table of the experiment
//! index (E1–E8, S1–S2); each table's caption states the paper claim it
//! checks.

#![forbid(unsafe_code)]

use std::fmt::Display;

/// A plain-text table with a title, caption, headers and rows.
pub struct Table {
    title: String,
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n", self.title));
        if !self.caption.is_empty() {
            out.push_str(&format!("{}\n", self.caption));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 1)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 4 significant decimals.
pub fn f(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats an integer-valued cell.
pub fn d(x: impl Display) -> String {
    format!("{x}")
}

/// The scoped-spawn parallel-map strategy the persistent pool replaced,
/// kept as the comparison baseline for the `perf_telemetry` pool-reuse
/// gate: scoped workers spawned per call, stealing item indices off a
/// shared atomic counter, results gathered in input order.
pub fn scoped_par_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let harvested: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("scoped worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in harvested.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed"))
        .collect()
}

/// Workloads used across experiments.
pub mod workloads {
    use lds_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A cycle (Δ = 2) — the fast exact-enumeration workload.
    pub fn cycle(n: usize) -> Graph {
        generators::cycle(n)
    }

    /// A 2D torus (Δ = 4) — the bounded-degree lattice workload.
    pub fn torus(side: usize) -> Graph {
        generators::torus(side, side)
    }

    /// A random Δ-regular graph — the expander-like workload.
    pub fn regular(n: usize, d: usize, seed: u64) -> Graph {
        generators::random_regular(n, d, &mut StdRng::seed_from_u64(seed))
    }
}
