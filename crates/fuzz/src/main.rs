#![forbid(unsafe_code)]
//! CLI driver for the deterministic mutation-fuzz harness.
//!
//! ```text
//! lcpio-fuzz [--iters N] [--seconds S] [--seed X]
//! ```
//!
//! Runs `N` mutated inputs (default 100 000) against every target,
//! stopping early after `S` seconds if given. Same seed, same inputs.

fn parse_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let raw = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("flag {flag} needs a value");
        std::process::exit(2);
    });
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("bad value for {flag}: {raw}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("lcpio-fuzz [--iters N] [--seconds S] [--seed X]");
        return;
    }
    let iters: u64 = parse_arg(&args, "--iters").unwrap_or(100_000);
    let seconds: Option<f64> = parse_arg(&args, "--seconds");
    let seed: u64 = parse_arg(&args, "--seed").unwrap_or(0xDEFA17);
    let t0 = std::time::Instant::now();
    let executed = lcpio_fuzz::run(iters, seed, seconds);
    println!(
        "fuzz: {executed} inputs in {:.1} s (seed {seed:#x}) — no panics, no differential splits",
        t0.elapsed().as_secs_f64()
    );
}
