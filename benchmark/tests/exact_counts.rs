//! Exact counts repeat between two traced runs of one seed: set-up and
//! per-query block transfers, sweep groups per query, mean batch size and
//! RPCs per query.  Every answer of both runs must also check out.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::process::Command;

const SEED: &str = "3";

/// The provenance line's `"exact": {...}` object, verbatim, and whether
/// the run reported every answer correct.
fn exact_counts(workload: &str) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_maxrs-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line");
    let provenance = lines.next().expect("provenance line");
    let start = provenance
        .find("\"exact\": {")
        .expect("exact counts recorded");
    let len = provenance[start..].find('}').expect("closed exact object") + 1;
    let correct = out.status.success() && result.contains("\"correct\": true");
    (provenance[start..start + len].to_string(), correct)
}

fn assert_repeats(workload: &str, expected_keys: &[&str]) {
    let (first, ok_first) = exact_counts(workload);
    let (second, ok_second) = exact_counts(workload);
    assert!(ok_first && ok_second, "{workload}: a run failed its checks");
    for key in expected_keys {
        assert!(
            first.contains(&format!("\"{key}\": ")),
            "{workload}: {key} missing in {first}"
        );
    }
    assert_eq!(
        first, second,
        "{workload}: exact counts differ between runs"
    );
}

#[test]
fn tiny_buffer_counts_repeat() {
    assert_repeats("tiny-buffer", &["setup_io_blocks", "io_blocks_per_query"]);
}

#[test]
fn wide_buffer_counts_repeat() {
    assert_repeats("wide-buffer", &["setup_io_blocks", "io_blocks_per_query"]);
}

#[test]
fn serve_rw_counts_repeat() {
    assert_repeats(
        "serve-rw",
        &[
            "setup_io_blocks",
            "io_blocks_per_query",
            "core.batch.groups_per_query",
            "serve.batch_size.mean",
        ],
    );
}

#[test]
fn scale_out_counts_repeat() {
    assert_repeats(
        "scale-out",
        &[
            "setup_io_blocks",
            "io_blocks_per_query",
            "core.batch.groups_per_query",
            "serve.batch_size.mean",
            "cluster.rpc.count_per_query",
        ],
    );
}
