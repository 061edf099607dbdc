//! The one exit rule of the workspace's command-line tools (`hubserve`,
//! `hl-shard`, `hlnp-fuzz`, `experiments`): why a command failed, and how
//! that becomes the process exit code.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

/// Why a command failed, which decides its exit code. A `String` error
/// converts to [`CliError::Runtime`] and an `io::Error` to
/// [`CliError::Write`], so `?` on the work's own failures and on stdout
/// writes needs no annotation; argument errors are wrapped where they are
/// found.
#[derive(Debug)]
pub enum CliError {
    /// The arguments were wrong — exit 2, for a subcommand's own
    /// arguments exactly as for a missing or unknown subcommand.
    Usage(String),
    /// The arguments were fine and the work failed — exit 1.
    Runtime(String),
    /// Writing the output failed: exit 0 and say nothing if the reader
    /// closed the pipe (it chose to stop reading), else exit 1.
    Write(io::Error),
}

impl CliError {
    /// An argument error, as the `Err` a command returns.
    pub fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
        Err(CliError::Usage(message.into()))
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

impl From<io::Error> for CliError {
    fn from(error: io::Error) -> Self {
        CliError::Write(error)
    }
}

/// The tail of every `main`: flushes the command's stdout handle `out`,
/// reports a failure as a `<tool>: <message>` line on `err` (the
/// process's stderr), and turns the outcome into the process exit code.
/// A failed flush counts only if the command itself succeeded.
pub fn exit_code(
    tool: &str,
    out: &mut impl Write,
    err: &mut impl Write,
    result: Result<(), CliError>,
) -> ExitCode {
    let flushed = out.flush().map_err(CliError::from);
    let (message, code) = match result.and(flushed) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Write(e)) if e.kind() == ErrorKind::BrokenPipe => return ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => (message, 2),
        Err(CliError::Runtime(message)) => (message, 1),
        Err(CliError::Write(e)) => (e.to_string(), 1),
    };
    // A stderr that cannot be written leaves nowhere to report to; the
    // exit code still says what happened.
    writeln!(err, "{tool}: {message}").ok();
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stdout whose flush fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_closed_pipe_is_success_and_any_other_write_error_exits_1() {
        let ok = || Ok(());
        let mut err = Vec::new();
        let mut exit = |mut out: &mut dyn Write, result| exit_code("t", &mut out, &mut err, result);
        assert_eq!(exit(&mut io::sink(), ok()), ExitCode::SUCCESS);
        let closed = &mut Failing(ErrorKind::BrokenPipe);
        assert_eq!(exit(closed, ok()), ExitCode::SUCCESS);
        let full = &mut Failing(ErrorKind::StorageFull);
        assert_eq!(exit(full, ok()), ExitCode::from(1));
        // The command's own failure outranks the flush's.
        let usage = CliError::usage("bad flag");
        assert_eq!(exit(closed, usage), ExitCode::from(2));
        let runtime = Err(CliError::from("no such store".to_string()));
        assert_eq!(exit(&mut io::sink(), runtime), ExitCode::from(1));
        // A closed pipe says nothing; every other failure says one line.
        assert_eq!(
            String::from_utf8(err).unwrap(),
            "t: no storage space\nt: bad flag\nt: no such store\n"
        );
    }
}
