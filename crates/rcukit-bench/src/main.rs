//! `rcukit-bench` entry point; all logic lives in the library crate.

use rcukit_bench::config::{self, USAGE};
use rcukit_bench::sweep;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match config::parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let results = sweep::run(&cfg);
    if let Some(path) = &cfg.out {
        let doc = sweep::render_trajectory(&cfg, &results);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} records to {path}", results.len());
    }
    if let Err(violations) = sweep::check(&cfg, &results) {
        eprintln!("{} record check violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
