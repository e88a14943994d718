//! Smoke tests for `exacoll profile`, driven through the dispatcher so they
//! exercise exactly what the binary runs.

use exacoll_cli::commands::dispatch;

fn run(s: &str) -> Result<(), String> {
    let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
    dispatch(&argv).map_err(|e| e.to_string())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "exacoll-profile-test-{}-{name}",
        std::process::id()
    ));
    p
}

#[test]
fn acceptance_command_emits_chrome_trace() {
    // The ISSUE acceptance command, sim + thread backends, comma radix.
    let trace = tmp("accept.json");
    run(&format!(
        "profile allreduce --alg recmult,4 --ranks 16 --chrome {}",
        trace.display()
    ))
    .expect("acceptance profile run");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = exacoll_json::parse(&text).expect("trace is valid JSON");
    let tracks = exacoll_obs::rank_tracks(&doc).expect("trace is Chrome-shaped");
    // One track per rank per backend (thread=pid 0, sim=pid 1).
    assert_eq!(tracks.len(), 32, "expected 16 ranks x 2 backends");
    for ((_, _), slices) in tracks {
        assert!(slices > 0, "every rank track has at least one slice");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn sim_backend_writes_metrics_snapshot() {
    let metrics = tmp("metrics.json");
    run(&format!(
        "profile bcast --alg knomial:4 --ranks 8 --backend sim --size 4K --metrics {}",
        metrics.display()
    ))
    .expect("sim profile run");
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let snap = exacoll_json::parse(&text).expect("metrics are valid JSON");
    let back = exacoll_obs::Metrics::from_json(&snap).expect("metrics round-trip");
    assert_eq!(back.to_json(), snap);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn comma_and_colon_radix_specs_agree() {
    run("profile allgather --alg kring,2 --ranks 4 --ppn 2 --backend sim").expect("comma spec");
    run("profile allgather --alg kring:2 --ranks 4 --ppn 2 --backend sim").expect("colon spec");
}

#[test]
fn positional_and_flag_op_both_work() {
    run("profile barrier --alg dissemination:2 --ranks 6 --backend sim").expect("positional op");
    run("profile --op barrier --alg dissemination:2 --ranks 6 --backend sim").expect("--op form");
}

#[test]
fn unknown_alg_and_machine_errors_list_accepted_values() {
    let e = run("profile allreduce --alg wat --ranks 8").unwrap_err();
    assert!(e.contains("recmult:K"), "alg error lists specs: {e}");
    assert!(e.contains("dissemination:K"), "alg error lists specs: {e}");
    let e = run("profile allreduce --alg ring --ranks 8 --machine summit").unwrap_err();
    assert!(
        e.contains("frontier") && e.contains("testbed"),
        "machine error lists presets: {e}"
    );
}

#[test]
fn bad_shapes_are_rejected() {
    // ranks not a multiple of ppn
    assert!(run("profile allreduce --alg ring --ranks 9 --ppn 2").is_err());
    // zero ranks
    assert!(run("profile allreduce --alg ring --ranks 0").is_err());
    // alg/op incompatibility surfaces before running anything
    assert!(run("profile allreduce --alg bruck --ranks 8 --backend sim").is_err());
    // unknown backend
    assert!(run("profile allreduce --alg ring --ranks 4 --backend gpu").is_err());
}
