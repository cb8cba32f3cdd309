//! `RESULTS.md` is the `reproduce` binary's stdout, byte for byte: the
//! committed results are the ones the code produces, and every headline
//! `reproduce` asserts held while producing them.

use std::process::Command;

#[test]
fn results_md_is_reproduce_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "reproduce failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = String::from_utf8(out.stdout).expect("UTF-8 output");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RESULTS.md");
    let committed = std::fs::read_to_string(path).expect("RESULTS.md is committed");
    let first_difference = produced
        .lines()
        .zip(committed.lines())
        .position(|(a, b)| a != b)
        .map(|i| i + 1);
    assert!(
        produced == committed,
        "RESULTS.md is not reproduce's stdout (first differing line: {first_difference:?}); \
         regenerate it with `cargo run --release -p rdt-bench --bin reproduce > RESULTS.md`"
    );
}
