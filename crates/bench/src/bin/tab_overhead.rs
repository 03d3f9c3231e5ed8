//! Regenerates the §6.6 overhead study.
use harp_bench::tables::overhead_table;
use harp_workload::scenarios;
fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let (singles, multis) = if reduced {
        (
            scenarios::intel_single()[..3].to_vec(),
            scenarios::intel_multi()[..2].to_vec(),
        )
    } else {
        (scenarios::intel_single(), scenarios::intel_multi())
    };
    match overhead_table(&singles, &multis, if reduced { 1 } else { 3 }) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("tab_overhead: {e}");
            std::process::exit(1);
        }
    }
    // Counted solver effort behind the modeled overhead (wall time is
    // `benchmark/`'s job; this line repeats exactly run to run).
    let s = harp_alloc::stats::snapshot();
    println!(
        "\nSolver: {} solves, work {:.3} reference schedules ({} memo hits, \
         {} certified early exits, {} full, {} dominated options pruned)",
        s.solves,
        s.work_micro as f64 / 1e6,
        s.memo_hits,
        s.certified,
        s.full,
        s.pruned_options
    );
}
