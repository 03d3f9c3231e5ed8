//! Regenerates Figure 6: improvement factors over CFS on Raptor Lake.
use harp_bench::fig6::{run, Fig6Options};
fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let opts = if reduced {
        Fig6Options::reduced()
    } else {
        Fig6Options::default()
    };
    match run(&opts) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("fig6_intel: {e}");
            std::process::exit(1);
        }
    }
}
