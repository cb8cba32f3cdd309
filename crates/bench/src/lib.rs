//! The `reproduce` binary's helpers and the deterministic parallel runs
//! ([`derive_seed`], [`par_map`]) that `rdt simulate --runs` and `rdt
//! audit --runs` fan out through.
//!
//! `reproduce` regenerates every figure and (synthetic) table of the
//! paper, one module each, in this order, asserting each one's headline;
//! its output is committed as `RESULTS.md`:
//!
//! | module | artifact |
//! |--------|----------|
//! | `fig1` | Figure 1 — zigzag/causal path classification, RDT |
//! | `fig2` | Figure 2 — useless checkpoints and the domino effect |
//! | `fig3` | Figure 3 — recovery-line determination, `F = {p2, p3}` |
//! | `fig4` | Figure 4 — the RDT-LGC execution trace |
//! | `fig5` | Figure 5 — worst case: `n` / `n+1` / `n²` / `n(n+1)` |
//! | `table_storage` | §6 practical evaluation — storage by collector |
//! | `table_optimality` | Theorems 4–5 — safety/optimality vs oracle |
//! | `table_rollback` | Algorithm 3 — LI vs DV recovery sessions |
//! | `table_forced` | §5 — forced checkpoints by protocol |
//! | `table_propagation` | §1 / Agbaria et al. — rollback blast radius |
//! | `table_safety` | §5 / Theorem 4 — per-elimination GC safety audit |

#![forbid(unsafe_code)]

pub mod parallel;

pub use parallel::{derive_seed, par_map, par_sweep};

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints the standard experiment header: id, description, parameters.
pub fn header(id: &str, what: &str, params: &str) {
    rule(78);
    println!("{id} — {what}");
    if !params.is_empty() {
        println!("params: {params}");
    }
    rule(78);
}

/// Formats a mean ± standard deviation pair.
pub fn mean_pm(values: &[f64]) -> String {
    if values.is_empty() {
        return "-".to_string();
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    format!("{mean:.2}±{:.2}", var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_pm_formats() {
        assert_eq!(mean_pm(&[2.0, 2.0]), "2.00±0.00");
        assert_eq!(mean_pm(&[]), "-");
    }
}
