//! The workspace's one TCP listener, and the only file allowed to name a
//! socket type (the smart-lint `network_access` allowlist; DESIGN.md §6).
//!
//! [`listen`] answers a first line starting `GET ` itself, on two routes:
//!
//! * `GET /metrics` — Prometheus-style text exposition: every counter and
//!   gauge, each histogram as cumulative `_bucket{le="..."}` lines plus
//!   `_sum`/`_count` and `_p50`/`_p90`/`_p99` quantile estimate lines, and
//!   the `wefr_telemetry_events_dropped` drop counter (always present, so
//!   scrapers can alert on buffer saturation).
//! * `GET /report` — the full smart-json run-report snapshot, exactly what
//!   [`crate::write_run_report`] would write, but captured mid-run.
//!
//! Other paths get a 404. Any other first line goes, with the connection,
//! to the caller's session: [`start`] answers `400 malformed request`, and
//! smart-serve runs its line protocol (DESIGN.md §14). Each line, and an
//! HTTP request line plus its headers together, are capped at 8 KiB; past
//! the cap the connection is dropped. HTTP responses are counted in
//! `serve.requests` and `serve.response_bytes`.
//!
//! Off by default: nothing binds unless [`start`] (or [`start_from_env`]
//! with `WEFR_METRICS_ADDR` set) or smart-serve calls [`listen`].
//! [`Listener::stop`] (also run on drop) raises a [`StopFlag`], wakes
//! `accept()` with a loopback connection, and joins the thread, so runs
//! exit cleanly; nothing here writes to stdout.

use std::io::{self, BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use sync::shutdown::StopFlag;

use crate::{snapshot, RunReport};

/// Environment knob: bind address for the metrics listener (e.g.
/// `127.0.0.1:9184`; port 0 picks a free port). Unset means no listener.
pub const ENV_METRICS_ADDR: &str = "WEFR_METRICS_ADDR";

/// How long a connection may dawdle before the server gives up on it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest line the server reads, and the cap on an HTTP request line and
/// its headers together.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Content type of the plain-text error responses.
const TEXT: &str = "text/plain; charset=utf-8";

/// Handle to a running listener. Stop it explicitly with
/// [`Listener::stop`]; dropping the handle performs the same clean
/// shutdown.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<StopFlag>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// The bound address — useful when started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the listener down: raise the stop flag, wake the accept loop
    /// with a loopback connection, and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.stop();
        // The accept loop blocks in accept(); a throwaway connection is the
        // portable way to wake it so the stop flag is observed promptly.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, CLIENT_TIMEOUT) {
            drop(stream);
        }
        let _ = thread.join();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and serve one connection at a time from a background
/// thread until the returned handle is stopped or dropped. `GET` requests
/// get the `/metrics` and `/report` snapshots labeled `run`; any other
/// first line is handed to `session` with the connection's buffered read
/// half and its write half.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn listen<S>(addr: &str, run: &str, session: S) -> io::Result<Listener>
where
    S: Fn(String, &mut BufReader<TcpStream>, &mut TcpStream) -> io::Result<()> + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(StopFlag::new());
    let flag = Arc::clone(&stop);
    let run = run.to_string();
    let thread = std::thread::Builder::new().spawn(move || {
        for connection in listener.incoming() {
            if flag.is_stopped() {
                break;
            }
            if let Ok(stream) = connection {
                // One slow or broken client must not take the endpoint
                // down; errors just close that connection.
                let _ = serve_connection(stream, &run, &session);
            }
        }
    })?;
    Ok(Listener {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Bind `addr` and serve `/metrics` and `/report` snapshots labeled `run`
/// until the returned handle is stopped or dropped; a first line that is
/// not a `GET` is answered `400 malformed request`.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn start(addr: &str, run: &str) -> io::Result<Listener> {
    listen(addr, run, |_, _, writer| {
        write_response(writer, "400 Bad Request", TEXT, "malformed request\n")
    })
}

/// [`start`] on the address named by `WEFR_METRICS_ADDR`. Returns `None`
/// when the variable is unset or empty; bind failures are reported as a
/// telemetry error event (and `None`) rather than aborting the run.
pub fn start_from_env(run: &str) -> Option<Listener> {
    let addr = std::env::var(ENV_METRICS_ADDR).ok()?;
    let addr = addr.trim();
    if addr.is_empty() {
        return None;
    }
    match start(addr, run) {
        Ok(server) => Some(server),
        Err(e) => {
            crate::error!(
                "serve",
                format!("failed to bind metrics listener on {addr}: {e}"),
            );
            None
        }
    }
}

/// Connect to a listener at `addr`, returning the buffered read half and
/// the write half, with the server's timeouts.
///
/// # Errors
///
/// Propagates connection failures.
pub fn connect(addr: SocketAddr) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    halves(TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?)
}

/// `GET path` from `addr`, returning `(status line, body)`.
///
/// # Errors
///
/// Propagates connection and read/write failures.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    let (mut reader, mut writer) = connect(addr)?;
    writer.write_all(format!("GET {path} HTTP/1.1\r\nHost: wefr\r\n\r\n").as_bytes())?;
    writer.flush()?;
    let mut raw = String::new();
    reader.read_to_string(&mut raw)?;
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// [`BufRead::read_line`] capped at 8 KiB: a line that hits the cap
/// without a `\n` is an `InvalidData` error, which drops the connection.
///
/// # Errors
///
/// Propagates read failures, and fails on an over-long line.
pub fn read_line_bounded<R: BufRead>(reader: &mut R, line: &mut String) -> io::Result<usize> {
    read_capped_line(&mut reader.take(MAX_REQUEST_BYTES), line)
}

/// Read one line through `head`'s remaining budget. A line that runs out
/// of budget before its `\n` is an `InvalidData` error.
fn read_capped_line<R: BufRead>(head: &mut Take<R>, line: &mut String) -> io::Result<usize> {
    let n = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request exceeds the length cap",
        ));
    }
    Ok(n)
}

/// Apply the client timeouts and split `stream` into a buffered read half
/// and a write half.
fn halves(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Read a connection's first line and route it: a `GET` to the HTTP
/// router, anything else to `session`.
fn serve_connection<S>(stream: TcpStream, run: &str, session: &S) -> io::Result<()>
where
    S: Fn(String, &mut BufReader<TcpStream>, &mut TcpStream) -> io::Result<()>,
{
    let (mut reader, mut writer) = halves(stream)?;
    let mut line = String::new();
    if read_line_bounded(&mut reader, &mut line)? == 0 {
        return Ok(());
    }
    if line.starts_with("GET ") {
        answer_http(&line, &mut reader, &mut writer, run)
    } else {
        session(line, &mut reader, &mut writer)
    }
}

/// Drain the headers after `request_line` and answer its path. The request
/// line and the headers share one cap; the head ends at an empty line or
/// EOF.
fn answer_http<R: BufRead, W: Write>(
    request_line: &str,
    reader: &mut R,
    writer: &mut W,
    run: &str,
) -> io::Result<()> {
    let mut head = reader.take(MAX_REQUEST_BYTES.saturating_sub(request_line.len() as u64));
    let mut line = String::new();
    loop {
        line.clear();
        read_capped_line(&mut head, &mut line)?;
        if line.trim_end_matches(['\r', '\n']).is_empty() {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or_default();
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_metrics(&snapshot(run)),
        ),
        "/report" => {
            let mut body = json::to_string_pretty(&snapshot(run));
            body.push('\n');
            ("200 OK", "application/json; charset=utf-8", body)
        }
        _ => (
            "404 Not Found",
            TEXT,
            "not found; routes: /metrics /report\n".to_string(),
        ),
    };
    write_response(writer, status, content_type, &body)
}

/// Write a minimal `HTTP/1.1` response — status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, then `body` — and count it.
fn write_response<W: Write>(
    writer: &mut W,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    crate::counter_add("serve.requests", 1);
    crate::histogram_observe("serve.response_bytes", response.len() as f64);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// A metric name in exposition form: `wefr_` prefix, every character
/// outside `[a-zA-Z0-9_]` mapped to `_` (dots become underscores).
fn expo_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("wefr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Format a float the way the exposition format expects: finite values via
/// shortest-repr `Display`, non-finite as `NaN`/`+Inf`/`-Inf`.
fn expo_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{value}")
    }
}

/// Render the snapshot as Prometheus-style text exposition.
fn render_metrics(report: &RunReport) -> String {
    let mut out = String::new();
    let mut dropped_listed = false;
    for counter in &report.counters {
        let name = expo_name(&counter.name);
        dropped_listed |= counter.name == "telemetry.events_dropped";
        out.push_str(&format!(
            "# TYPE {name} counter\n{name} {}\n",
            counter.value
        ));
    }
    if !dropped_listed {
        // Always exposed, even at zero: scrapers alert on its slope, so the
        // series must exist before the buffer ever saturates.
        out.push_str(&format!(
            "# TYPE wefr_telemetry_events_dropped counter\nwefr_telemetry_events_dropped {}\n",
            report.dropped_events
        ));
    }
    for gauge in &report.gauges {
        let name = expo_name(&gauge.name);
        out.push_str(&format!(
            "# TYPE {name} gauge\n{name} {}\n",
            expo_f64(gauge.value)
        ));
    }
    for histogram in &report.histograms {
        let name = expo_name(&histogram.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for &(exp, count) in &histogram.buckets {
            cumulative += count;
            let le = expo_f64(2f64.powi(exp + 1));
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            histogram.count,
            expo_f64(histogram.sum),
            histogram.count
        ));
        for (suffix, value) in [
            ("p50", histogram.p50),
            ("p90", histogram.p90),
            ("p99", histogram.p99),
        ] {
            out.push_str(&format!("{name}_{suffix} {}\n", expo_f64(value)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind::{TimedOut, WouldBlock};

    #[test]
    fn unknown_path_is_a_404_listing_the_routes() {
        let server = start("127.0.0.1:0", "serve-test").unwrap();
        let (status, body) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        assert_eq!(body, "not found; routes: /metrics /report\n");
        server.stop();
    }

    #[test]
    fn non_get_first_line_is_a_400_malformed_request() {
        let server = start("127.0.0.1:0", "serve-test").unwrap();
        let (mut reader, mut writer) = connect(server.addr()).unwrap();
        writer
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: wefr\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        reader.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
        assert!(reply.ends_with("\r\n\r\nmalformed request\n"), "{reply}");
        server.stop();
    }

    #[test]
    fn newline_free_flood_is_dropped_without_a_reply() {
        let server = start("127.0.0.1:0", "serve-test").unwrap();
        let (mut reader, mut writer) = connect(server.addr()).unwrap();
        // Half the server's timeout: the connection must be dropped at the
        // cap, not left open until the server gives up on it.
        writer.set_read_timeout(Some(CLIENT_TIMEOUT / 2)).unwrap();
        // The server hangs up mid-write, so the write may fail; either way
        // no reply may come back.
        let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        let mut reply = Vec::new();
        if let Err(e) = reader.read_to_end(&mut reply) {
            assert!(
                !matches!(e.kind(), TimedOut | WouldBlock),
                "connection left open: {e}"
            );
        }
        assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));
        let (status, _) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        server.stop();
    }
}
