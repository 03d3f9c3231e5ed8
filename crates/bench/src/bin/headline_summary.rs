//! Regenerates the abstract's headline numbers from full Fig. 6 + Fig. 7
//! runs (slow; pass `--reduced` for a coarse estimate).
use harp_bench::tables::headline;
use harp_bench::{fig6, fig7};
fn main() {
    let reduced = std::env::args().any(|a| a == "--reduced");
    let (o6, o7) = if reduced {
        (fig6::Fig6Options::reduced(), fig7::Fig7Options::reduced())
    } else {
        (fig6::Fig6Options::default(), fig7::Fig7Options::default())
    };
    match headline(&o6, &o7) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("headline_summary: {e}");
            std::process::exit(1);
        }
    }
}
