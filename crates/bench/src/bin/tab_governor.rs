//! Regenerates the §6.3.3 frequency-governor study.
use harp_bench::tables::{governor_table, GovernorOptions};
fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let opts = if reduced {
        GovernorOptions::reduced()
    } else {
        GovernorOptions::default()
    };
    match governor_table(&opts) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("tab_governor: {e}");
            std::process::exit(1);
        }
    }
}
