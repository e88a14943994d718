//! # exacoll-bench — reproduction harnesses for every table and figure
//!
//! One module per evaluation artifact of the paper; each produces
//! plain-text [`Table`]s with the same axes as the original figure.
//! `cargo bench` runs every target (they are `harness = false` binaries);
//! pass `--quick` via `EXACOLL_QUICK=1` to shrink node counts for smoke
//! runs.
//!
//! | target     | paper artifact                                             |
//! |------------|------------------------------------------------------------|
//! | `table1`   | Table I — kernel/collective coverage                       |
//! | `fig07`    | Fig. 7 — k=2 generalization has no slowdown                 |
//! | `fig08`    | Fig. 8 — radix vs latency on Frontier (3 panels)            |
//! | `fig09`    | Fig. 9 — best-generalized speedup vs baselines (4 panels)   |
//! | `fig10`    | Fig. 10 — 1024-node scaling (3 panels)                      |
//! | `fig11`    | Fig. 11 — radix vs latency on Polaris (3 panels)            |
//! | `selection`| §VI-G — autotuned selection configuration                   |
//! | `selection_overhead` | ns/lookup of the lock-free selection hot path     |
//! | `models`   | Eqs. 1–14 — analytical model vs simulator                   |
//! | `residuals`| per-round measured-vs-model deltas from recorded timelines  |
//! | `backends` | thread vs tcp transport latency for allreduce recmult       |
//! | `opt_passes` | modeled cost deltas of the verified optimizer passes      |
//! | `hotpath`  | per-call dispatch overhead: cold vs cached                  |
//! | `micro`    | criterion micro-benchmarks of the library itself            |

pub mod ablation;
pub mod alltoall_ext;
pub mod backends;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod hotpath;
pub mod modelcmp;
pub mod opt_passes;
pub mod residuals;
pub mod selection;
pub mod selection_overhead;
pub mod table1;
pub mod variance;

pub use exacoll_osu::Table;

/// Whether to run the reduced-size smoke configuration
/// (`EXACOLL_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("EXACOLL_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Print a bench's tables and persist CSVs under `results/`.
pub fn emit(name: &str, tables: &[Table]) {
    for t in tables {
        t.print();
    }
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        for (i, t) in tables.iter().enumerate() {
            let path = dir.join(format!("{name}_{i}.csv"));
            let _ = std::fs::write(path, t.to_csv());
        }
    }
}
