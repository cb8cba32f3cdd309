//! Reproduces the paper's results: every figure and synthetic table, one
//! module each, printed in order as Markdown. Each artefact asserts its
//! headline as it prints, so a run that finishes is a run whose claims
//! held. Seeds are fixed and the output does not depend on the worker
//! count, so it is committed as `RESULTS.md`, and
//! `crates/bench/tests/results.rs` checks the two agree:
//!
//! ```sh
//! cargo run --release -p rdt-bench --bin reproduce > RESULTS.md
//! ```

mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod table_forced;
mod table_optimality;
mod table_propagation;
mod table_rollback;
mod table_safety;
mod table_storage;

fn main() {
    println!("# Results\n");
    println!(
        "The paper's figures and synthetic tables as regenerated by\n\
         `cargo run --release -p rdt-bench --bin reproduce`, whose stdout this\n\
         file is. Every artefact asserts its headline while it prints.\n"
    );
    println!("```text");
    fig1::run();
    fig2::run();
    fig3::run();
    fig4::run();
    fig5::run();
    table_storage::run();
    table_optimality::run();
    table_rollback::run();
    table_forced::run();
    table_propagation::run();
    table_safety::run();
    println!("```");
}
