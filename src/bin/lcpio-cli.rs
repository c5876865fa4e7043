#![forbid(unsafe_code)]
//! The `lcpio-cli` binary: a thin shim over [`lcpio::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match lcpio::cli::parse_invocation(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", lcpio::cli::usage());
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = lcpio::cli::run_invocation(inv, &mut stdout) {
        eprintln!("{e}");
        // Same split as parse time: bad user input is 2, everything else
        // (codec/io failures) is 1.
        let code = if matches!(e, lcpio::cli::CliError::Usage(_)) { 2 } else { 1 };
        std::process::exit(code);
    }
}
