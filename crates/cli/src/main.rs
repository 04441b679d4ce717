//! The `icnoc` command-line tool. See [`icnoc_cli`] for the implementation.

use std::io::{self, Write};

fn main() {
    let cli = match icnoc_cli::Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match icnoc_cli::run(&cli) {
        Ok(output) => {
            let mut stdout = io::stdout().lock();
            if let Err(e) = writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                // A reader that closed the pipe early (`| head`) has all
                // it wanted: exit quietly.
                if e.kind() == io::ErrorKind::BrokenPipe {
                    return;
                }
                eprintln!("error: writing output: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
