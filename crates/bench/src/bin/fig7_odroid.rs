//! Regenerates Figure 7: HARP (Offline) vs EAS on the Odroid XU3-E.
use harp_bench::fig7::{run, Fig7Options};
fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let opts = if reduced {
        Fig7Options::reduced()
    } else {
        Fig7Options::default()
    };
    match run(&opts) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("fig7_odroid: {e}");
            std::process::exit(1);
        }
    }
}
