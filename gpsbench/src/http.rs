//! A minimal HTTP/1.1 client on a raw `TcpStream`: one keep-alive
//! connection, `Content-Length` framing, and a reconnect whenever the
//! server answers `Connection: close`. It is deliberately independent of
//! the clients in `gps_obs`, so refactoring those cannot move the numbers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest head or body accepted; the service's answers are far smaller.
const MAX_MESSAGE: usize = 64 << 20;

/// One keep-alive connection to `addr`, reopened on demand.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    carry: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
    /// Time spent in `connect` so far.
    pub connect_time: Duration,
}

/// A response: status code and body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            carry: Vec::with_capacity(4096),
            connects: 0,
            connect_time: Duration::ZERO,
        }
    }

    /// Issues `GET path` and reads the whole response.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let t0 = Instant::now();
            let stream = TcpStream::connect(self.addr)?;
            self.connect_time += t0.elapsed();
            self.connects += 1;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.carry.clear();
            self.stream = Some(stream);
        }
        let result = self.exchange(path);
        if !matches!(result, Ok((_, true))) {
            // Closed by the server, or broken: the next request reconnects.
            self.stream = None;
        }
        result.map(|(response, _)| response)
    }

    /// Sends one request and reads its response; the flag says whether
    /// the connection may be reused.
    fn exchange(&mut self, path: &str) -> io::Result<(Response, bool)> {
        let stream = self.stream.as_mut().expect("connected above");
        let request = format!("GET {path} HTTP/1.1\r\nHost: gpsbench\r\n\r\n");
        stream.write_all(request.as_bytes())?;
        let head_end = loop {
            if let Some(i) = find(&self.carry, b"\r\n\r\n") {
                break i + 4;
            }
            if self.carry.len() > MAX_MESSAGE {
                return Err(invalid("response head too large"));
            }
            fill(stream, &mut self.carry)?;
        };
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        let mut keep_alive = true;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        let length = length
            .filter(|&n| n <= MAX_MESSAGE)
            .ok_or_else(|| invalid("missing or oversized Content-Length"))?;
        while self.carry.len() < head_end + length {
            fill(stream, &mut self.carry)?;
        }
        let body = String::from_utf8(self.carry[head_end..head_end + length].to_vec())
            .map_err(|_| invalid("response body is not UTF-8"))?;
        self.carry.drain(..head_end + length);
        Ok((Response { status, body }, keep_alive))
    }
}

fn fill(stream: &mut TcpStream, carry: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    match stream.read(&mut chunk)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )),
        n => {
            carry.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `GET /n` with body `n` repeated `n` times, closing every
    /// connection after `budget` requests (announced with
    /// `Connection: close`). Writes each response in two pieces to
    /// exercise partial reads.
    fn serve(listener: TcpListener, budget: usize, total: usize) {
        let mut served = 0;
        while served < total {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            for k in 0..budget {
                let head_end = loop {
                    if let Some(i) = find(&buf, b"\r\n\r\n") {
                        break i + 4;
                    }
                    let mut chunk = [0u8; 1024];
                    let n = stream.read(&mut chunk).unwrap();
                    if n == 0 {
                        return;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                };
                let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
                buf.drain(..head_end);
                let n: usize = head.split(' ').nth(1).unwrap()[1..].parse().unwrap();
                let body = n.to_string().repeat(n);
                let last = k + 1 == budget;
                let connection = if last { "close" } else { "keep-alive" };
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                    body.len()
                );
                stream.write_all(head.as_bytes()).unwrap();
                stream.flush().unwrap();
                stream.write_all(body.as_bytes()).unwrap();
                served += 1;
                if last || served == total {
                    break;
                }
            }
        }
    }

    #[test]
    fn frames_bodies_by_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 100, 40));
        let mut client = Client::new(addr);
        for n in 0..40usize {
            let r = client.get(&format!("/{n}")).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, n.to_string().repeat(n));
        }
        assert_eq!(client.connects, 1, "keep-alive reuses one connection");
        server.join().unwrap();
    }

    #[test]
    fn reconnects_after_connection_close_on_the_100th_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 100, 150));
        let mut client = Client::new(addr);
        for i in 0..150usize {
            let r = client.get(&format!("/{}", i % 7)).unwrap();
            assert_eq!(r.body, (i % 7).to_string().repeat(i % 7));
            let expected = if i < 100 { 1 } else { 2 };
            assert_eq!(client.connects, expected, "after request {}", i + 1);
        }
        server.join().unwrap();
    }
}
