//! The bytes a live server puts on a socket are exactly the bytes
//! `Response::write_to` produces in memory for the same request: the
//! transport adds, drops and reorders nothing.

use rvz_experiments::SweepOptions;
use rvz_server::http::{read_request, Response};
use rvz_server::{Service, ServiceOptions};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn test_options() -> ServiceOptions {
    ServiceOptions {
        sweep: SweepOptions {
            threads: 1,
            contact: rvz_sim::ContactOptions {
                max_steps: 20_000,
                horizon: rvz_core::completion_time(6),
                ..SweepOptions::default().contact
            },
            ..SweepOptions::default()
        },
        ..ServiceOptions::default()
    }
}

fn post(path: &str, trace: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: rvz\r\nX-Rvz-Trace: {trace}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response off the wire, byte for byte, using its
/// `Content-Length` to find the end.
fn read_raw_response(stream: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    raw.extend_from_slice(&body);
    raw
}

/// What `write_to` serializes for `raw` on a reference service,
/// mirroring the server's keep-alive loop: a handled request, or the
/// 400 that closes the connection on a malformed one.
fn expected_bytes(reference: &Service, raw: &[u8]) -> Vec<u8> {
    let response = match read_request(&mut BufReader::new(raw)) {
        Ok(request) => {
            let (mut response, _) = reference.handle(&request);
            response.close = response.close || request.wants_close();
            response
        }
        Err(e) => {
            let mut response = Response::error(400, &e.to_string());
            response.close = true;
            response
        }
    };
    let mut wire = Vec::new();
    response.write_to(&mut wire).unwrap();
    wire
}

#[test]
fn wire_bytes_equal_in_memory_serialization() {
    let server = rvz_server::spawn("127.0.0.1:0", Service::new(test_options()), 2)
        .expect("bind an ephemeral port");
    let reference = Service::new(test_options());

    let first_contact = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
    let requests: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\nHost: rvz\r\nX-Rvz-Trace: 00000000000000a1\r\n\r\n".to_vec(),
        post("/first-contact", "00000000000000a2", first_contact),
        post("/first-contact", "00000000000000a3", first_contact),
        b"GARBAGE\r\n\r\n".to_vec(),
    ];

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut cache_markers = Vec::new();
    for raw in &requests {
        stream.write_all(raw).unwrap();
        let got = read_raw_response(&mut stream);
        let want = expected_bytes(&reference, raw);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "request {:?}",
            String::from_utf8_lossy(raw)
        );
        let text = String::from_utf8(got).unwrap();
        if let Some(marker) = text.lines().find_map(|l| l.strip_prefix("X-Rvz-Cache: ")) {
            cache_markers.push(marker.to_string());
        }
    }
    assert_eq!(cache_markers, ["miss", "hit"]);

    // The malformed request's 400 closed the connection.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);

    server.shutdown();
}
