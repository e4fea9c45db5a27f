//! The daemon's query endpoint: the line protocol ([`crate::protocol`]) as
//! a session on smart-telemetry's one TCP listener
//! ([`telemetry::serve::listen`]). That listener also answers
//! `GET /metrics` and `GET /report` on the same port, and owns the accept
//! loop, the 8 KiB request caps, and the [`StopFlag`]-handshake shutdown.
//!
//! Sessions read, they never write: each request is answered from the
//! view the daemon last published, loaded from its [`Published`] cell,
//! and the daemon's own lock is never taken.
//!
//! No socket type is named here, so the crate stays off the smart-lint
//! `network_access` allowlist: the session loop and its block writer are
//! generic over `BufRead`/`Write`, and the client helper
//! [`query_session`] connects through [`telemetry::serve::connect`].
//!
//! [`StopFlag`]: sync::shutdown::StopFlag

use std::io::{BufRead, Write};
use std::net::SocketAddr;

use sync::{Arc, Mutex, PoisonError, Published};
use telemetry::serve::{connect, listen, read_line_bounded, Listener};

use crate::daemon::Daemon;
use crate::protocol::{parse_request, Request};
use crate::view::View;

/// Bind `addr` and answer queries against `daemon` from a background
/// thread until the returned handle is stopped or dropped. `run` labels
/// the telemetry snapshot behind `GET /metrics` and `GET /report`.
///
/// The daemon's lock is taken once, here, to get its read handle. From
/// then on every request is answered from the view the daemon last
/// published, so a query never waits for a cycle or an ingest holding the
/// lock; one that arrives during day `d`'s cycle gets day `d - 1`'s state.
/// The listener serves the daemon it was started with: putting another
/// `Daemon` into the mutex later does not redirect it.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn start(addr: &str, daemon: Arc<Mutex<Daemon>>, run: &str) -> std::io::Result<Listener> {
    let views = daemon
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .reader();
    listen(addr, run, move |line, reader, writer| {
        session(&views, line, reader, writer)
    })
}

/// Answer `line` and every later request line until `QUIT` or EOF, each
/// from the view current when it is answered.
fn session<R: BufRead, W: Write>(
    views: &Published<View>,
    mut line: String,
    reader: &mut R,
    writer: &mut W,
) -> std::io::Result<()> {
    loop {
        telemetry::counter_add("serve.requests", 1);
        match parse_request(&line) {
            Ok(request) => {
                let quit = request == Request::Quit;
                let lines = views.load().respond(request);
                write_block(writer, &lines)?;
                if quit {
                    return Ok(());
                }
            }
            Err(message) => write_block(writer, &[format!("ERR {message}")])?,
        }
        line.clear();
        if read_line_bounded(reader, &mut line)? == 0 {
            return Ok(());
        }
    }
}

/// Write one response block: the lines, then the terminating blank line.
fn write_block<W: Write>(writer: &mut W, lines: &[String]) -> std::io::Result<()> {
    let mut block = String::new();
    for l in lines {
        block.push_str(l);
        block.push('\n');
    }
    block.push('\n');
    telemetry::histogram_observe("serve.response_bytes", block.len() as f64);
    writer.write_all(block.as_bytes())?;
    writer.flush()
}

/// Open one line-protocol session, send each command, and collect each
/// response block (lines joined with `\n`, terminator stripped).
///
/// # Errors
///
/// Propagates connection and read/write failures.
pub fn query_session(addr: SocketAddr, commands: &[&str]) -> std::io::Result<Vec<String>> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut responses = Vec::with_capacity(commands.len());
    for command in commands {
        writer.write_all(command.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut block = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            block.push(trimmed.to_string());
        }
        responses.push(block.join("\n"));
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use std::io::Read;
    use std::time::Duration;
    use telemetry::serve::http_get;

    fn start_empty() -> (Listener, Arc<Mutex<Daemon>>) {
        let daemon = Arc::new(Mutex::new(Daemon::new(ServeConfig::default())));
        let listener = start("127.0.0.1:0", Arc::clone(&daemon), "listener-test").unwrap();
        (listener, daemon)
    }

    /// Send `bytes`, then assert the listener hung up without replying and
    /// still answers a fresh session.
    fn assert_dropped_without_reply(addr: SocketAddr, bytes: &[u8]) {
        let (mut reader, mut writer) = connect(addr).unwrap();
        // Half the server's 5 s timeout: the connection must be dropped at
        // the cap, not left open until the server gives up on it.
        writer
            .set_read_timeout(Some(Duration::from_millis(2500)))
            .unwrap();
        // The server hangs up mid-write, so the write may fail; either way
        // no response block may come back.
        let _ = writer.write_all(bytes);
        let mut reply = Vec::new();
        if let Err(e) = reader.read_to_end(&mut reply) {
            use std::io::ErrorKind::{TimedOut, WouldBlock};
            assert!(
                !matches!(e.kind(), TimedOut | WouldBlock),
                "connection left open: {e}"
            );
        }
        assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));
        let responses = query_session(addr, &["STATUS"]).unwrap();
        assert!(responses[0].starts_with("ok status\n"), "{responses:?}");
    }

    #[test]
    fn session_round_trips_and_shuts_down() {
        let (listener, _daemon) = start_empty();
        let responses = query_session(
            listener.addr(),
            &["STATUS", "SCORE drive-000001", "BOGUS", "QUIT"],
        )
        .unwrap();
        assert_eq!(responses.len(), 4);
        assert!(responses[0].starts_with("ok status\n"));
        assert!(responses[1].starts_with("ERR "));
        assert!(responses[2].starts_with("ERR unknown command"));
        assert_eq!(responses[3], "ok bye");
        listener.stop();
    }

    #[test]
    fn http_report_route_answers_json() {
        let (listener, _daemon) = start_empty();
        let (status, body) = http_get(listener.addr(), "/report").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.trim_start().starts_with('{'), "{body}");
        let (status, _) = http_get(listener.addr(), "/nope").unwrap();
        assert!(status.contains("404"), "{status}");
        listener.stop();
    }

    #[test]
    fn newline_free_flood_is_dropped_and_listener_keeps_serving() {
        let (listener, _daemon) = start_empty();
        assert_dropped_without_reply(listener.addr(), &vec![b'x'; 1 << 20]);
        listener.stop();
    }

    /// The listener's longest request line, `\n` included.
    const CAP: usize = 8 * 1024;

    /// One random request line of the fuzz: a command, random bytes
    /// (invalid UTF-8 included), or a run of bytes near or past the cap.
    fn fuzz_line(g: &mut rng::prop::Gen) -> Vec<u8> {
        const WORDS: [&str; 8] = [
            "STATUS",
            "features",
            "SCORE 3",
            "score drive-000001",
            "SCORE",
            "BOGUS x",
            "  ",
            "QUIT",
        ];
        match g.usize_in(0, 9) {
            0..=4 => WORDS[g.usize_in(0, WORDS.len() - 1)].as_bytes().to_vec(),
            5..=7 => (0..g.usize_in(0, 40))
                .map(|_| g.u64_in(0, 255) as u8)
                .collect(),
            _ => vec![b'x'; g.usize_in(CAP - 2, CAP + 2)],
        }
    }

    /// What the listener must do with `input`: the reply blocks it owes,
    /// and whether the session ends in an error (an over-cap or non-UTF-8
    /// line) rather than at EOF or `QUIT`.
    fn owed(input: &[u8]) -> (usize, bool) {
        let mut rest = input;
        let mut replies = 0;
        while !rest.is_empty() {
            let head = &rest[..rest.len().min(CAP)];
            let Some(end) = head.iter().position(|&b| b == b'\n').map(|i| i + 1).or(
                // A last line without `\n` is answered if it fits.
                (rest.len() < CAP).then_some(rest.len()),
            ) else {
                return (replies, true);
            };
            let Ok(line) = std::str::from_utf8(&rest[..end]) else {
                return (replies, true);
            };
            replies += 1;
            if parse_request(line) == Ok(Request::Quit) {
                break;
            }
            rest = &rest[end..];
        }
        (replies, false)
    }

    #[test]
    fn fuzzed_sessions_answer_whole_blocks_or_drop_the_line() {
        let daemon = Daemon::new(ServeConfig::default());
        let views = daemon.reader();
        rng::prop_check!(|g| {
            let mut input = Vec::new();
            for _ in 0..g.usize_in(0, 6) {
                input.extend(fuzz_line(g));
                input.extend_from_slice([&b"\n"[..], b"\r\n", b"\r"][g.usize_in(0, 2)]);
            }
            if g.bool() {
                // Cut the input mid-line.
                input.extend(fuzz_line(g));
            }
            // The listener's first read, then the session, as
            // `telemetry::serve::listen` runs them.
            let mut reader = std::io::Cursor::new(&input[..]);
            let mut written = Vec::new();
            let mut first = String::new();
            let result = match read_line_bounded(&mut reader, &mut first) {
                Ok(0) => Ok(()),
                Ok(_) => session(&views, first, &mut reader, &mut written),
                Err(e) => Err(e),
            };
            let (replies, fails) = owed(&input);
            assert_eq!(result.is_err(), fails, "{result:?}");
            let written = String::from_utf8(written).expect("replies are text");
            let blocks: Vec<&str> = match written.strip_suffix("\n\n") {
                Some(body) => body.split("\n\n").collect(),
                None => {
                    assert!(written.is_empty(), "a reply block without its blank line");
                    Vec::new()
                }
            };
            assert_eq!(blocks.len(), replies, "{written:?}");
            for block in blocks {
                assert!(
                    block.split('\n').all(|l| !l.is_empty()),
                    "an empty line inside a block: {block:?}"
                );
            }
        });
    }

    #[test]
    fn header_flood_is_dropped_and_listener_keeps_serving() {
        let (listener, _daemon) = start_empty();
        // Every line is short; only a cap on the whole head stops it.
        let mut request = String::from("GET /metrics HTTP/1.1\r\n");
        for n in 0..1_000 {
            request.push_str(&format!("X-Pad-{n}: 0123456789\r\n"));
        }
        assert_dropped_without_reply(listener.addr(), request.as_bytes());
        listener.stop();
    }
}
