//! The experiment driver trains each model once per run. These tests pin
//! what that must not change: a run of every experiment prints what each
//! experiment prints when run alone.

use tabbin_bench::experiments::{run, select};
use tabbin_bench::ExpConfig;

/// Small enough for an unoptimised test build, large enough that every
/// table still has rows. Zero steps: the models keep their seeded
/// initialisation, which is all the driver's wiring needs to show.
fn small() -> ExpConfig {
    ExpConfig { n_tables: 6, steps: 0, seed: 7, k: 20, max_queries: 4 }
}

/// `block` without its second column: Table 3's train time, the one cell
/// that is measured rather than computed.
fn without_train_time(block: &str) -> String {
    block
        .lines()
        .map(|line| {
            let sep = if line.contains('|') { '|' } else { '+' };
            let mut cells: Vec<&str> = line.split(sep).collect();
            if cells.len() > 1 {
                cells.remove(1);
            }
            cells.join(&sep.to_string())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `spec`'s experiments together and each alone, and checks that the
/// blocks agree and that every table has a header and at least one row.
fn check_against_runs_alone(spec: Option<&str>, cfg: &ExpConfig) {
    let selected = select(spec).unwrap();
    let together = run(&selected, cfg);
    assert_eq!(together.len(), selected.len());
    for (e, block) in selected.iter().zip(&together) {
        let alone = run(&[e], cfg);
        assert_eq!(alone.len(), 1);
        let (a, b) = if e.name == "table03" {
            (without_train_time(&alone[0]), without_train_time(block))
        } else {
            (alone[0].clone(), block.clone())
        };
        assert_eq!(a, b, "{} differs between the joint run and a run of it alone", e.name);

        // Title, separator, header, separator, then at least one row.
        let lines: Vec<&str> = block.lines().collect();
        assert!(lines.len() >= 6, "{}: too short:\n{block}", e.name);
        assert!(lines[1].starts_with('-') && lines[3].starts_with('-'), "{}:\n{block}", e.name);
        assert!(lines[2].contains('|'), "{}: no header:\n{block}", e.name);
        assert!(!lines[4].starts_with('-'), "{}: no rows:\n{block}", e.name);
    }
}

/// Every experiment, models trained for one step. An unoptimised build
/// spends minutes here (Table 9's fixed DITTO budget alone takes ~30 s), so
/// it runs in release builds only: `cargo test --release -p tabbin-bench
/// --test driver`.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; run with --release")]
fn a_full_run_prints_what_each_experiment_prints_alone() {
    check_against_runs_alone(None, &ExpConfig { n_tables: 10, steps: 1, ..small() });
}

/// The same identity on the experiments an unoptimised build runs in
/// seconds, at initialisation weights: two lineup tables sharing the
/// CancerKG and CovidKG bundles, the figures, and Tables 3 and 7.
#[test]
fn shared_bundles_print_what_each_table_prints_alone() {
    let spec = "figure1,figure2,figure3,figure4,figure5,table03,table07,table08,table14";
    check_against_runs_alone(Some(spec), &small());
}

#[test]
fn a_selection_keeps_print_order_and_rejects_unknown_names() {
    let names: Vec<&str> =
        select(Some("table13,figure2,table04")).unwrap().iter().map(|e| e.name).collect();
    assert_eq!(names, ["figure2", "table04", "table13"]);
    let err = select(Some("table04,table15")).err().unwrap();
    assert!(err.contains("\"table15\"") && err.contains("figure1") && err.contains("table14"));
    assert!(select(Some("")).is_err());
}
