//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! just enough to drive the server from the load harness, the
//! integration tests, and scripts, without external dependencies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to a server.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status code and body (decoded as UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl HttpClient {
    /// Connect to `addr` with a 30 s read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Connect with a hard deadline on the connect itself *and* on every
    /// subsequent read/write. The coordinator uses this so a stalled or
    /// dead worker costs one bounded timeout, never a 30 s hang.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including timeout).
    pub(crate) fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issue a `GET`.
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed/oversized response.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None)
    }

    /// Issue a `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed/oversized response.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    /// Issue a bodyless request with an arbitrary method (tests use
    /// this to cover 405 handling for HEAD/PUT/…).
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed/oversized response.
    pub fn request_with_method(&mut self, method: &str, path: &str) -> std::io::Result<Response> {
        self.request(method, path, None)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sketch-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        let mut wire = Vec::with_capacity(head.len() + body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body.as_bytes());
        self.stream.write_all(&wire)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let malformed =
            |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(malformed("response head too large"));
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(malformed("connection closed mid-response")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| malformed("non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| malformed("bad content-length"))?;
                }
            }
        }
        let total = (head_end + 4)
            .checked_add(content_length)
            .ok_or_else(|| malformed("bad content-length"))?;
        while self.buf.len() < total {
            match self.stream.read(&mut chunk)? {
                0 => return Err(malformed("connection closed mid-body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| malformed("non-utf8 response body"))?;
        self.buf.drain(..total);
        Ok(Response { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn overflowing_content_length_is_invalid_data_not_a_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 1024];
            let _ = stream.read(&mut request).unwrap();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n")
                .unwrap();
        });
        let mut client = HttpClient::connect(addr).unwrap();
        let err = client.get("/healthz").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        server.join().unwrap();
    }
}
