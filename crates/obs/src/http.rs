//! Minimal hand-rolled HTTP/1.1 server for live-run monitoring.
//!
//! Offline and dependency-free, in the same spirit as the hand-rolled
//! JSON writer: just enough of HTTP/1.1 for a Prometheus scraper or
//! `curl` — `GET`, a status line, `Content-Type`/`Content-Length`,
//! `Connection: close`. Requests are served serially from one
//! background thread with a non-blocking accept loop, so dropping the
//! [`HttpServer`] stops it promptly.
//!
//! [`monitor_handler`] wires the three monitoring routes `ct serve` and
//! `ct top --listen` expose: `/metrics` (the existing Prometheus
//! exposition), `/series.jsonl` (the sampler's ring) and `/health`
//! (JSON; 503 while a critical health event is active, so a probe can
//! alert without parsing anything).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::health::HealthEvent;
use crate::json::JsonObject;
use crate::series::SeriesStore;
use crate::telemetry::TelemetryHub;

/// Largest request head (request line + headers) we accept.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a client may take to deliver its whole request head,
/// counted from its accept, and then each write of the response; past
/// it the connection is dropped. Requests are served one at a time, so
/// this bounds how long one slow sender delays every other client.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One response: status, media type and body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given media type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// A plain-text `404 Not Found`.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".to_owned(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())
    }
}

/// A background HTTP server; see the module docs. Dropping it stops
/// the accept loop and joins the thread.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free one)
    /// and serve `handler(path)` for every `GET`.
    pub fn spawn<F>(addr: &str, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(&str) -> Response + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ct-http".to_owned())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let _ = serve_one(&mut stream, &handler);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(HttpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to stop and join it (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read one request head, dispatch, write one response. The head must
/// arrive within [`IO_TIMEOUT`] of the call, which follows the accept:
/// each read may wait only what is left of that, and a head still
/// incomplete then drops the connection unanswered.
fn serve_one<F>(stream: &mut TcpStream, handler: &F) -> std::io::Result<()>
where
    F: Fn(&str) -> Response,
{
    let deadline = Instant::now() + IO_TIMEOUT;
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&buf);
    let response = match parse_request_line(head.lines().next().unwrap_or("")) {
        Some(("GET", path)) => handler(path),
        Some((_, _)) => Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "only GET is supported\n".to_owned(),
        },
        None => Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: "malformed request line\n".to_owned(),
        },
    };
    response.write_to(stream)
}

/// `"GET /metrics HTTP/1.1"` → `("GET", "/metrics")`. Any query string
/// is stripped; the HTTP version is not inspected.
fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    parts.next()?; // version must at least be present
    let path = target.split('?').next().unwrap_or(target);
    if !path.starts_with('/') {
        return None;
    }
    Some((method, path))
}

/// The `/health` body: overall status plus the currently active
/// events.
fn health_json(active: &[HealthEvent], critical: usize) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("schema", crate::series::SCHEMA);
    obj.field_str(
        "status",
        if critical > 0 {
            "critical"
        } else if active.is_empty() {
            "ok"
        } else {
            "degraded"
        },
    );
    obj.field_array("active", active.iter().map(HealthEvent::to_json));
    obj.finish() + "\n"
}

/// The monitoring route table: `/metrics`, `/series.jsonl` and
/// `/health` over a live hub and (when sampling is enabled) its series
/// store. Pass the result to [`HttpServer::spawn`].
pub fn monitor_handler(
    hub: Arc<TelemetryHub>,
    source: &str,
    store: Option<Arc<SeriesStore>>,
) -> impl Fn(&str) -> Response + Send + 'static {
    let source = source.to_owned();
    move |path| match path {
        "/metrics" => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            hub.snapshot().with_source(&source).render_prometheus(),
        ),
        "/series.jsonl" => match &store {
            Some(s) => Response::ok("application/x-ndjson", s.export_jsonl()),
            None => Response::not_found(),
        },
        "/health" => {
            let (active, critical) = match &store {
                Some(s) => {
                    let active = s.active();
                    let critical = s.active_critical().len();
                    (active, critical)
                }
                None => (Vec::new(), 0),
            };
            let body = health_json(&active, critical);
            Response {
                status: if critical > 0 { 503 } else { 200 },
                content_type: "application/json",
                body,
            }
        }
        _ => Response::not_found(),
    }
}

/// Tiny blocking client for `ct monitor --connect` and the tests:
/// `GET path` against `addr`, returning `(status, body)`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
    })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesStore;
    use crate::telemetry::Counter;

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /series.jsonl?tail=10 HTTP/1.1"),
            Some(("GET", "/series.jsonl"))
        );
        assert_eq!(
            parse_request_line("POST /metrics HTTP/1.1"),
            Some(("POST", "/metrics"))
        );
        assert_eq!(parse_request_line("GET metrics HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET /metrics"), None);
        assert_eq!(parse_request_line(""), None);
    }

    #[test]
    fn server_round_trips_the_monitor_routes() {
        let hub = Arc::new(TelemetryHub::new(1, 4));
        hub.add(0, Counter::SchedQuanta, 5);
        let store = Arc::new(SeriesStore::new(8));
        let mut server = HttpServer::spawn(
            "127.0.0.1:0",
            monitor_handler(Arc::clone(&hub), "cluster", Some(Arc::clone(&store))),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let timeout = Duration::from_secs(5);

        let (status, body) = http_get(&addr, "/metrics", timeout).expect("GET /metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("ct_sched_quanta{source=\"cluster\"} 5"),
            "{body}"
        );

        let (status, body) = http_get(&addr, "/health", timeout).expect("GET /health");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (status, body) = http_get(&addr, "/series.jsonl", timeout).expect("GET series");
        assert_eq!(status, 200);
        assert!(body.is_empty(), "no windows recorded yet: {body}");

        let (status, _) = http_get(&addr, "/nope", timeout).expect("GET unknown");
        assert_eq!(status, 404);

        server.stop();
    }

    #[test]
    fn a_trickling_client_delays_the_next_one_by_one_timeout_at_most() {
        let ok = |_: &str| Response::ok("text/plain", "ok\n".to_owned());
        let mut server = HttpServer::spawn("127.0.0.1:0", ok).expect("bind");
        let addr = server.addr();
        // One byte every 500 ms: each read of it is far inside the
        // timeout, and the whole head would take 11.5 s.
        let mut slow = TcpStream::connect(addr).expect("connect");
        let trickle = std::thread::spawn(move || {
            for &byte in b"GET /metrics HTTP/1.1\r\n" {
                if slow.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        // Connections are accepted in the order they were made, so the
        // trickler is served first.
        let started = Instant::now();
        let (status, body) =
            http_get(&addr.to_string(), "/metrics", Duration::from_secs(30)).expect("GET /metrics");
        let waited = started.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            waited <= IO_TIMEOUT + Duration::from_secs(1),
            "answered after {waited:?}"
        );
        trickle.join().unwrap();
        server.stop();
    }

    #[test]
    fn health_route_is_503_while_a_critical_event_is_active() {
        let hub = Arc::new(TelemetryHub::new(1, 4));
        let store = Arc::new(SeriesStore::new(8));
        // Three windows of a broadcast wedged at 2/3 colored.
        hub.set_iter_active(1);
        hub.set_iter_progress(3, 2);
        for t_ms in 0..4 {
            store.sample(hub.snapshot(), t_ms);
        }
        let mut server = HttpServer::spawn(
            "127.0.0.1:0",
            monitor_handler(Arc::clone(&hub), "cluster", Some(Arc::clone(&store))),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let (status, body) =
            http_get(&addr, "/health", Duration::from_secs(5)).expect("GET /health");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\":\"critical\""), "{body}");
        assert!(body.contains("stall_precursor"), "{body}");
        // Condition clears: back to 200.
        hub.add(0, Counter::MsgsDelivered, 1);
        store.sample(hub.snapshot(), 4);
        let (status, body) =
            http_get(&addr, "/health", Duration::from_secs(5)).expect("GET /health");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        server.stop();
    }
}
