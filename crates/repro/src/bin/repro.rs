//! `repro <subcommand> [flags]`: the one executable of this crate (see
//! [`locality_repro::suite::SUBCOMMANDS`] or `repro --help`).

fn main() -> std::process::ExitCode {
    locality_repro::suite::main()
}
