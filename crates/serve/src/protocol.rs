//! The line protocol: one request per line, one response block per
//! request, each block terminated by a blank line.
//!
//! Grammar (case-insensitive command word):
//!
//! ```text
//! SCORE <drive>    drive = "drive-000042" or bare "42"
//! FEATURES
//! STATUS
//! QUIT
//! ```
//!
//! Responses are deterministic text: `ok`-prefixed payload lines on
//! success, a single `ERR <message>` line on failure. Scores print with
//! `{:.9}` — enough digits to expose any nondeterminism in CI transcript
//! diffs while keeping the golden file stable across formatting quirks.

use smart_dataset::DriveId;

use crate::daemon::Daemon;

/// A parsed line-protocol request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Score one drive on the current day.
    Score(DriveId),
    /// List the selected base-feature names.
    Features,
    /// Daemon status.
    Status,
    /// Close the connection.
    Quit,
}

/// Parse one request line.
///
/// # Errors
///
/// Returns the `ERR` message for unknown commands or malformed drive ids.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let command = words.next().ok_or_else(|| "empty request".to_string())?;
    let arg = words.next();
    if words.next().is_some() {
        return Err(format!("too many arguments for {command}"));
    }
    match (command.to_ascii_uppercase().as_str(), arg) {
        ("SCORE", Some(drive)) => parse_drive_id(drive).map(Request::Score),
        ("SCORE", None) => Err("SCORE needs a drive id".to_string()),
        ("FEATURES", None) => Ok(Request::Features),
        ("STATUS", None) => Ok(Request::Status),
        ("QUIT", None) => Ok(Request::Quit),
        (other, _) => Err(format!("unknown command {other}")),
    }
}

/// Parse `drive-000042` or bare `42`.
fn parse_drive_id(text: &str) -> Result<DriveId, String> {
    let digits = text.strip_prefix("drive-").unwrap_or(text);
    digits
        .parse::<u32>()
        .map(DriveId)
        .map_err(|_| format!("bad drive id {text}"))
}

/// Answer a request from the view the daemon last published, through the
/// one answer function the listener also uses. Every response is a list
/// of lines; the listener adds the terminating blank line.
pub fn respond(daemon: &Daemon, request: Request) -> Vec<String> {
    daemon.view().respond(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;

    #[test]
    fn parses_each_command() {
        assert_eq!(
            parse_request("SCORE drive-000042"),
            Ok(Request::Score(DriveId(42)))
        );
        assert_eq!(parse_request("score 7"), Ok(Request::Score(DriveId(7))));
        assert_eq!(parse_request("FEATURES"), Ok(Request::Features));
        assert_eq!(parse_request("  status "), Ok(Request::Status));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("SCORE").is_err());
        assert!(parse_request("SCORE drive-xyz").is_err());
        assert!(parse_request("STATUS now").is_err());
        assert!(parse_request("PING").is_err());
    }

    #[test]
    fn empty_daemon_answers_every_request() {
        let daemon = Daemon::new(ServeConfig::default());
        assert!(respond(&daemon, Request::Score(DriveId(1)))[0].starts_with("ERR "));
        assert!(respond(&daemon, Request::Features)[0].starts_with("ERR "));
        let status = respond(&daemon, Request::Status);
        assert_eq!(status[0], "ok status");
        assert!(status.contains(&"selection none".to_string()));
        assert_eq!(respond(&daemon, Request::Quit), vec!["ok bye".to_string()]);
    }
}
