//! The TCP listener: line-protocol sessions plus `GET /metrics` and
//! `GET /report` HTTP routes, with a [`StopFlag`]-handshake shutdown.
//!
//! This is the only file in the crate allowed to touch sockets (the
//! smart-lint `network_access` allowlist); everything else stays pure so
//! determinism tests can drive the daemon without a network. The client
//! helpers ([`query_session`], [`http_get`]) live here for the same
//! reason — binaries are subject to the socket rule too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use sync::shutdown::StopFlag;
use sync::{Arc, Mutex, PoisonError};

use crate::daemon::Daemon;
use crate::protocol::{parse_request, respond, Request};

/// How long a connection may dawdle before the server gives up on it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request or header line the server reads (the telemetry
/// endpoint's request cap). A longer line drops the connection, so a
/// client streaming bytes without a newline cannot grow server memory.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Handle to a running serve listener. Stop it explicitly with
/// [`ServeListener::stop`]; dropping the handle performs the same clean
/// shutdown (flag, loopback wake, join — the `MetricsServer` pattern,
/// with the flag upgraded to the model-checked [`StopFlag`]).
pub struct ServeListener {
    addr: SocketAddr,
    stop: Arc<StopFlag>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeListener {
    /// The bound address — useful when started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the listener down and join its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.stop();
        // The accept loop blocks in accept(); a throwaway connection is
        // the portable way to wake it so the stop flag is observed.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, CLIENT_TIMEOUT) {
            drop(stream);
        }
        let _ = thread.join();
    }
}

impl Drop for ServeListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and answer queries against `daemon` from a background
/// thread until the returned handle is stopped or dropped. `run` labels
/// the telemetry snapshot behind `GET /metrics` and `GET /report`.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn start(addr: &str, daemon: Arc<Mutex<Daemon>>, run: &str) -> std::io::Result<ServeListener> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(StopFlag::new());
    let flag = Arc::clone(&stop);
    let run = run.to_string();
    let thread = std::thread::Builder::new()
        .name("wefr-serve".to_string())
        .spawn(move || {
            for connection in listener.incoming() {
                if flag.is_stopped() {
                    break;
                }
                if let Ok(stream) = connection {
                    // One slow or broken client must not take the daemon
                    // down; errors just close that connection.
                    let _ = handle_connection(stream, &daemon, &run);
                }
            }
        })?;
    Ok(ServeListener {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn handle_connection(
    stream: TcpStream,
    daemon: &Arc<Mutex<Daemon>>,
    run: &str,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    if read_line_bounded(&mut reader, &mut line)? == 0 {
        return Ok(());
    }
    if line.starts_with("GET ") {
        // HTTP branch: drain the headers, answer once, close.
        let path = line
            .split_whitespace()
            .nth(1)
            .unwrap_or_default()
            .to_string();
        loop {
            // Headers end at an empty (\r\n) line.
            line.clear();
            if read_line_bounded(&mut reader, &mut line)? <= 2 {
                break;
            }
        }
        return write_http(&mut writer, &path, run);
    }
    loop {
        telemetry::counter_add("serve.requests", 1);
        let response = match parse_request(&line) {
            Ok(request) => {
                let quit = request == Request::Quit;
                let lines = {
                    let guard = daemon.lock().unwrap_or_else(PoisonError::into_inner);
                    respond(&guard, request)
                };
                write_block(&mut writer, &lines)?;
                if quit {
                    return writer.flush();
                }
                Ok(())
            }
            Err(message) => write_block(&mut writer, &[format!("ERR {message}")]),
        };
        response?;
        line.clear();
        if read_line_bounded(&mut reader, &mut line)? == 0 {
            return writer.flush();
        }
    }
}

/// [`BufRead::read_line`] capped at [`MAX_LINE_BYTES`]: a line that hits
/// the cap without a `\n` is an `InvalidData` error, which drops the
/// connection.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE_BYTES).read_line(line)?;
    if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line exceeds the length cap",
        ));
    }
    Ok(n)
}

/// Write one response block: the lines, then the terminating blank line.
fn write_block(writer: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
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

fn write_http(writer: &mut TcpStream, path: &str, run: &str) -> std::io::Result<()> {
    telemetry::counter_add("serve.requests", 1);
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            telemetry::serve::render_metrics(&telemetry::snapshot(run)),
        ),
        "/report" => {
            let mut body = json::to_string_pretty(&telemetry::snapshot(run));
            body.push('\n');
            ("200 OK", "application/json; charset=utf-8", body)
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; routes: /metrics /report\n".to_string(),
        ),
    };
    let response = telemetry::serve::http_response(status, content_type, &body);
    telemetry::histogram_observe("serve.response_bytes", response.len() as f64);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// Open one line-protocol session, send each command, and collect each
/// response block (lines joined with `\n`, terminator stripped).
///
/// # Errors
///
/// Propagates connection and read/write failures.
pub fn query_session(addr: SocketAddr, commands: &[&str]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
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

/// `GET path` from `addr`, returning `(status line, body)`.
///
/// # Errors
///
/// Propagates connection and read/write failures.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: wefr\r\n\r\n").as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;

    fn start_empty() -> (ServeListener, Arc<Mutex<Daemon>>) {
        let daemon = Arc::new(Mutex::new(Daemon::new(ServeConfig::default())));
        let listener = start("127.0.0.1:0", Arc::clone(&daemon), "listener-test").unwrap();
        (listener, daemon)
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
        let mut stream = TcpStream::connect_timeout(&listener.addr(), CLIENT_TIMEOUT).unwrap();
        // Half the server's timeout: the connection must be dropped at the
        // cap, not left open until the server gives up on it.
        stream.set_read_timeout(Some(CLIENT_TIMEOUT / 2)).unwrap();
        stream.set_write_timeout(Some(CLIENT_TIMEOUT)).unwrap();
        // The server hangs up mid-write, so the write may fail; either way
        // no response block may come back.
        let _ = stream.write_all(&vec![b'x'; 1 << 20]);
        let mut reply = Vec::new();
        if let Err(e) = stream.read_to_end(&mut reply) {
            use std::io::ErrorKind::{TimedOut, WouldBlock};
            assert!(
                !matches!(e.kind(), TimedOut | WouldBlock),
                "connection left open: {e}"
            );
        }
        assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));
        let responses = query_session(listener.addr(), &["STATUS"]).unwrap();
        assert!(responses[0].starts_with("ok status\n"), "{responses:?}");
        listener.stop();
    }
}
