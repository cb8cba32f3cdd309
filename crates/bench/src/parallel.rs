//! Parallel runs: fans independent simulation runs out across cores with
//! deterministic per-run seeds (`reproduce`'s sweeps, `rdt --runs`).
//!
//! Every run of a sweep is an independent seeded simulation, so the grid
//! `cells × seeds` parallelizes embarrassingly. Seeds are derived with
//! [`derive_seed`] — a SplitMix64 mix of the base seed and the run index —
//! so a sweep's workload set is identical no matter how many workers
//! execute it, in what order, or whether it runs serially (`RAYON_NUM_THREADS=1`).
//!
//! Results always come back in input order: parallelism never changes
//! what a figure or table prints.

use rayon::prelude::*;

/// Deterministic seed for run `run` of a sweep anchored at `base`.
///
/// SplitMix64 over `base + run`: well-distributed, collision-free for any
/// practical sweep size, and stable across platforms.
pub fn derive_seed(base: u64, run: u64) -> u64 {
    let mut z = base
        .wrapping_add(run.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps `f` over `inputs` on the worker pool, preserving input order.
pub fn par_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    inputs.into_par_iter().map(f).collect()
}

/// Runs `runs_per_cell` seeded executions of every cell, fanning the full
/// `cells × runs` grid across cores. Returns one `Vec<R>` per cell, in
/// cell order, each in run order; run `k` of every cell uses
/// `derive_seed(base_seed, k)`, so all cells see the same seed set.
pub fn par_sweep<C, R, F>(cells: Vec<C>, runs_per_cell: u64, base_seed: u64, run: F) -> Vec<Vec<R>>
where
    C: Sync + Send,
    R: Send,
    F: Fn(&C, u64) -> R + Sync,
{
    let grid: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|cell| (0..runs_per_cell).map(move |k| (cell, k)))
        .collect();
    let flat: Vec<R> = grid
        .into_par_iter()
        .map(|(cell, k)| run(&cells[cell], derive_seed(base_seed, k)))
        .collect();
    let mut out: Vec<Vec<R>> = Vec::with_capacity(cells.len());
    let mut flat = flat.into_iter();
    for _ in 0..cells.len() {
        out.push(flat.by_ref().take(runs_per_cell as usize).collect());
    }
    out
}

/// Arithmetic mean, for aggregating per-seed measurements.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..100).map(|k| derive_seed(7, k)).collect();
        let b: Vec<u64> = (0..100).map(|k| derive_seed(7, k)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..500u64).collect(), |x| x * 3);
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_sweep_grid_shape_and_determinism() {
        let cells = vec![10u64, 20, 30];
        let once = par_sweep(cells.clone(), 4, 99, |&c, seed| (c, seed));
        let twice = par_sweep(cells, 4, 99, |&c, seed| (c, seed));
        assert_eq!(once, twice);
        assert_eq!(once.len(), 3);
        for (i, runs) in once.iter().enumerate() {
            assert_eq!(runs.len(), 4);
            assert!(runs.iter().all(|&(c, _)| c == (i as u64 + 1) * 10));
            // Every cell sees the same seed set.
            assert_eq!(
                runs.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                once[0].iter().map(|&(_, s)| s).collect::<Vec<_>>()
            );
        }
    }
}
