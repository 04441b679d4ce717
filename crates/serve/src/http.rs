//! A minimal HTTP/1.1 layer — just enough protocol for a local sweep
//! service: one request per connection (`Connection: close`), JSON
//! bodies, and chunked transfer encoding for streaming responses.
//!
//! Hand-rolled on `std::net` because the workspace has no registry
//! access; the JSON side reuses the deterministic writer/parser from
//! [`icnoc_explore::json`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The largest request head (request line + headers) accepted.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// The largest request body accepted.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path and (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// The request target, e.g. `/sweeps/s1/stream`.
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: String,
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// Any malformed, oversized or truncated request is an
/// `io::ErrorKind::InvalidData` error — the connection handler turns it
/// into a 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    // One byte past the cap is enough to reject: a client that never
    // sends a newline cannot make the head grow without bound.
    let mut capped = (&mut reader).take(MAX_HEAD_BYTES as u64 + 1);
    loop {
        let before = head.len();
        capped.read_line(&mut head)?;
        if head.len() == before {
            return Err(bad("connection closed mid-request"));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        if head.ends_with("\r\n\r\n") || head.ends_with("\n\n") {
            break;
        }
    }
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_owned();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_owned();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The reason phrase for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes a complete (non-chunked) response and flushes. `extra_headers`
/// lines go out verbatim (no trailing `\r\n` in the input).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[String],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A chunked-transfer response in progress: each [`send`](Self::send)
/// emits one chunk immediately (flushed), so clients see rows as jobs
/// finish, not when the sweep ends.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the 200 head announcing chunked transfer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(stream: &'a mut TcpStream) -> io::Result<Self> {
        stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Sends `line` (a newline is appended) as one flushed chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (a disconnected streamer).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let payload = format!("{line}\n");
        write!(self.stream, "{:x}\r\n{payload}\r\n", payload.len())?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A client-side response: status plus the fully-read body (chunked
/// transfer already decoded).
#[derive(Debug)]
pub struct ClientResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The decoded body.
    pub body: String,
}

/// Performs one request against `addr` and reads the whole response.
/// With `on_line`, each line of a chunked (streaming) body is delivered
/// as it arrives, before the call returns.
///
/// # Errors
///
/// Connection, protocol and UTF-8 failures.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    mut on_line: Option<&mut dyn FnMut(&str)>,
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let mut body = String::new();
    if chunked {
        let mut pending = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            let text = String::from_utf8(chunk).map_err(|_| bad("chunk is not UTF-8"))?;
            body.push_str(&text);
            if let Some(cb) = on_line.as_deref_mut() {
                pending.push_str(&text);
                while let Some(pos) = pending.find('\n') {
                    let line: String = pending.drain(..=pos).collect();
                    cb(line.trim_end());
                }
            }
        }
    } else if let Some(len) = content_length {
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf)?;
        body = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))?;
    } else {
        reader.read_to_string(&mut body)?;
    }
    Ok(ClientResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_and_plain_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            let req = read_request(&mut stream).expect("parses");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/sweeps");
            assert_eq!(req.body, "{\"grid\":\"\"}");
            write_response(&mut stream, 202, &[], "{\"ok\":true}").expect("writes");
        });
        let resp =
            client_request(&addr, "POST", "/sweeps", "{\"grid\":\"\"}", None).expect("requests");
        assert_eq!(resp.status, 202);
        assert_eq!(resp.body, "{\"ok\":true}");
        server.join().expect("server thread");
    }

    #[test]
    fn chunked_responses_stream_line_by_line() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            let _ = read_request(&mut stream).expect("parses");
            let mut chunks = ChunkedWriter::start(&mut stream).expect("starts");
            chunks
                .send("{\"event\":\"row\",\"index\":0}")
                .expect("sends");
            chunks.send("{\"event\":\"complete\"}").expect("sends");
            chunks.finish().expect("finishes");
        });
        let mut lines = Vec::new();
        let resp = client_request(
            &addr,
            "GET",
            "/sweeps/s1/stream",
            "",
            Some(&mut |line: &str| lines.push(line.to_owned())),
        )
        .expect("requests");
        assert_eq!(resp.status, 200);
        assert_eq!(
            lines,
            vec![
                "{\"event\":\"row\",\"index\":0}",
                "{\"event\":\"complete\"}"
            ]
        );
        server.join().expect("server thread");
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            read_request(&mut stream).expect_err("oversized head must fail")
        });
        let mut stream = TcpStream::connect(addr).expect("connects");
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        stream.write_all(huge.as_bytes()).expect("writes");
        stream.flush().expect("flushes");
        server.join().expect("server thread");
    }

    #[test]
    fn endless_head_lines_are_rejected_while_the_client_waits() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            // Turns a reader that waits for the newline into a failure
            // instead of a hung test.
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("sets timeout");
            read_request(&mut stream).expect_err("an endless head line must fail")
        });
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all("x".repeat(16 * 1024).as_bytes())
            .expect("writes");
        stream.flush().expect("flushes");
        // `stream` stays open until the server has answered.
        let err = server.join().expect("server thread");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
        drop(stream);
    }
}
