//! A minimal HTTP/1.1 request/response layer over [`std::net`].
//!
//! Deliberately tiny: the server speaks exactly the subset its four
//! routes need — one request per connection (`Connection: close`),
//! `Content-Length` bodies only, hard limits on header and body size,
//! and a read timeout so a stalled client cannot pin one of the
//! server's few handler threads for long.
//! Every limit violation maps to a typed [`HttpError`] the caller
//! turns into a 4xx JSON response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEAD: usize = 8 * 1024;

/// Maximum accepted `Content-Length`, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// How long a handler waits on a slow or stalled client before
/// giving up on the request.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request: method, path and (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), verbatim.
    pub method: String,
    /// The request target, verbatim (no query-string splitting; the
    /// server's routes do not use one).
    pub path: String,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The request line or headers were malformed (or over
    /// [`MAX_HEAD`]).
    BadRequest(String),
    /// The declared `Content-Length` exceeds [`MAX_BODY`].
    BodyTooLarge(usize),
    /// The client stalled past [`READ_TIMEOUT`].
    Timeout,
    /// The connection failed mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::BodyTooLarge(n) => {
                write!(
                    f,
                    "request body of {n} bytes exceeds the {MAX_BODY} byte limit"
                )
            }
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl HttpError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::BodyTooLarge(_) => 413,
            HttpError::Timeout => 408,
            HttpError::Io(_) => 400,
        }
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads and parses one request from `stream`, enforcing
/// [`MAX_HEAD`], [`MAX_BODY`] and [`READ_TIMEOUT`].
///
/// # Errors
///
/// Returns an [`HttpError`] describing the malformed request, limit
/// violation or connection failure.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(HttpError::Io)?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds {MAX_HEAD} bytes"
            )));
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before the request head ended".to_string(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{request_line}`"
        )));
    };
    if method.is_empty() || path.is_empty() {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{request_line}`"
        )));
    }
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length `{value}`")))?;
        }
    }
    if content_length > MAX_BODY {
        // Drain the declared body (bounded) so the client can finish
        // its write and still read the 413 — closing mid-upload would
        // reset the connection under the response. Past the cap the
        // client is hostile; just close.
        if content_length <= 8 * MAX_BODY {
            let mut remaining = content_length.saturating_sub(buf.len() - (head_end + 4));
            while remaining > 0 {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => remaining = remaining.saturating_sub(n),
                }
            }
        }
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before the declared body ended".to_string(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// The byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one `Connection: close` JSON response.
///
/// # Errors
///
/// Propagates the socket write error.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The canonical reason phrase of every status the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found_only_when_terminated() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn errors_map_to_the_right_status() {
        assert_eq!(HttpError::BadRequest(String::new()).status(), 400);
        assert_eq!(HttpError::BodyTooLarge(0).status(), 413);
        assert_eq!(HttpError::Timeout.status(), 408);
    }
}
