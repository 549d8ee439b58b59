//! Prints the paper's tables and figures; the experiments themselves live in
//! [`dsi_bench::figures`].
//!
//! ```text
//! cargo run -p dsi-bench --release --bin figures -- all
//! cargo run -p dsi-bench --release --bin figures -- dedup durability --smoke
//! ```

fn main() {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--smoke");
    match dsi_bench::figures::select(&ids) {
        Ok(figures) => {
            for (_, print) in figures {
                print(!flags.is_empty());
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
