//! The out-of-process server under test and a minimal keep-alive
//! HTTP/1.1 client for it.

use rvz_experiments::Json;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `rvz` argv the benchmark serves with: default flags on an
/// ephemeral port.
pub const SERVE_ARGV: [&str; 3] = ["serve", "--port", "0"];

/// Largest response body the client accepts (a `/metrics` scrape is a
/// few tens of KiB).
const MAX_BODY: usize = 64 << 20;

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends one request and reads its response: status and body.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(request)?;
        self.receive()
    }

    /// Writes request bytes (one request, or several pipelined).
    pub fn send(&mut self, requests: &[u8]) -> io::Result<()> {
        self.stream.write_all(requests)
    }

    /// Reads the next response: status and body.
    pub fn receive(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let status = self
            .read_line()?
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut len = 0usize;
        loop {
            let header = self.read_line()?;
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad Content-Length"))?;
                }
            }
        }
        if len > MAX_BODY {
            return Err(invalid("response body too large"));
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: rvz\r\n\r\n").into_bytes()
}

/// A running `rvz serve` child process. Dropping it kills the process
/// and waits for it; [`Server::shutdown`] stops it gracefully.
pub struct Server {
    child: Option<Child>,
    /// Kept open so the server's exit banner never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `rvz serve --port 0` and waits for its listening banner.
    pub fn spawn(rvz: &Path) -> Result<Server, String> {
        let mut child = Command::new(rvz)
            .args(SERVE_ARGV)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", rvz.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the rvz serve banner: {e}"))?;
            if n == 0 {
                return Err("rvz serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("rvz serve listening on ") {
                server.addr = addr.to_string();
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// One request on a fresh connection (closed afterwards, so it never
    /// pins a server worker).
    pub fn call(&self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        Conn::connect(&self.addr)
            .and_then(|mut c| c.roundtrip(request))
            .map_err(|e| format!("request to {}: {e}", self.addr))
    }

    /// `GET path`, expecting a 200 with a UTF-8 body.
    pub fn get(&self, path: &str) -> Result<String, String> {
        match self.call(&get_request(path))? {
            (200, body) => String::from_utf8(body).map_err(|_| format!("{path}: body not UTF-8")),
            (status, _) => Err(format!("{path} answered {status}")),
        }
    }

    /// `POST /shutdown`, then waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let request = b"POST /shutdown HTTP/1.1\r\nHost: rvz\r\nContent-Length: 0\r\n\r\n";
        self.call(request)?;
        let mut child = self.child.take().expect("server not yet stopped");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("rvz serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("rvz serve did not exit after /shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Metric series parsed from a Prometheus text exposition — a server's
/// `/metrics`, or this process's own `rvz_obs` registry.
pub struct Series(HashMap<String, f64>);

impl Series {
    pub fn parse(text: &str) -> Series {
        Series(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse::<f64>().ok()?))
                })
                .collect(),
        )
    }

    /// This process's registry.
    pub fn local() -> Series {
        Series::parse(&rvz_obs::render())
    }

    /// One series such as `rvz_engine_queries_total{path="cursor"}`
    /// (0 when absent).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// The sum over every label value of a metric family.
    pub fn family(&self, name: &str) -> f64 {
        let labelled = format!("{name}{{");
        self.0
            .iter()
            .filter(|(key, _)| key.as_str() == name || key.starts_with(&labelled))
            .map(|(_, v)| v)
            .sum()
    }
}

/// One read of a server's `/metrics` and `/stats`.
pub struct Scrape {
    pub series: Series,
    stats: Json,
}

impl Scrape {
    pub fn take(server: &Server) -> Result<Scrape, String> {
        let series = Series::parse(&server.get("/metrics")?);
        let stats = rvz_experiments::json::parse(&server.get("/stats")?)
            .map_err(|e| format!("/stats is not JSON: {e}"))?;
        Ok(Scrape { series, stats })
    }

    /// A `/stats` value by path, e.g. `["cache", "joined"]`.
    pub fn stat(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(&self.stats, |json, key| json.get(key))
    }

    pub fn stat_f64(&self, path: &[&str]) -> f64 {
        self.stat(path).and_then(Json::as_f64).unwrap_or(0.0)
    }
}
