//! Thin binary shell around [`sketch_cli::run`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = sketch_cli::run(&argv)
        .and_then(|report| sketch_cli::write_report(std::io::stdout().lock(), &report));
    if let Err(e) = done {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
