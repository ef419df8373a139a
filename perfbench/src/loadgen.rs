//! Open-loop load generator: one thread, at most two connections in
//! flight.
//!
//! Requests fall due on a fixed schedule (`i / rate` seconds after the
//! phase starts). Each latency runs from the request's due time to the
//! last byte of its response, so a stall also counts against every
//! request queued behind it. A due request waits for a free connection
//! slot; the generator's own lateness is how long after that moment (due
//! time, or the moment a slot freed) it actually sent the request.
//!
//! The server answers one request per connection (`Connection: close`),
//! so each request is connect, write, read to end of stream. Sockets are
//! non-blocking after the write and waited on with `ppoll(2)`, whose
//! nanosecond timeout lets the one thread both meet the schedule and
//! read responses the moment they arrive.
//!
//! The caller plans the requests and allocates the outcome slots before
//! the phase, and a response body is kept only as a [`Digest`], so that
//! the generator's own memory stays out of the server's heap figures.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

#[cfg(not(target_os = "linux"))]
compile_error!("the load generator waits with ppoll(2) and runs on Linux only");

/// Connections in flight at once.
pub const MAX_IN_FLIGHT: usize = 2;

/// A connection with no response after this long is a transport error.
pub const STALL_LIMIT: Duration = Duration::from_secs(10);

/// Length and 64-bit SipHash of a response body: enough to compare it
/// with the reference body without keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Digest {
        let mut hasher = DefaultHasher::new();
        hasher.write(bytes);
        Digest {
            len: bytes.len(),
            hash: hasher.finish(),
        }
    }
}

/// What happened to one sent request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status; 0 for a transport error or an unparsable response.
    pub status: u16,
    /// Digest of the response body (after the header block).
    pub body: Digest,
    /// Due time to last response byte.
    pub latency: Duration,
    /// Moment the request could have been sent to moment it was sent.
    pub late: Duration,
    /// Due time, relative to the phase start.
    pub due: Duration,
    /// Response complete, relative to the phase start.
    pub done: Duration,
}

/// Stop sending once more than `allowed` requests took longer than
/// `limit`.
#[derive(Debug, Clone, Copy)]
pub struct Cutoff {
    pub limit: Duration,
    pub allowed: usize,
}

struct Conn {
    idx: usize,
    stream: TcpStream,
    buf: Vec<u8>,
    sent: Instant,
    late: Duration,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until one of `streams` is readable or `timeout` passes.
fn wait_readable(streams: &[&TcpStream], timeout: Duration) {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd` records laid out as the C struct (`#[repr(C)]`, i32 + two
    // i16); `ts` is a valid `timespec` on 64-bit Linux; a null signal mask
    // leaves the mask unchanged. ppoll only writes `revents`. EINTR and
    // other errors are harmless: the caller re-checks every socket.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Split a raw response into status and body digest.
fn parse_response(raw: &[u8]) -> (u16, Digest) {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (0, Digest::default());
    };
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, Digest::of(&raw[head_end + 4..]))
}

fn send(addr: SocketAddr, raw: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Read what is available; `Some(complete)` once the stream ended or
/// failed (`false` on failure).
fn pump(conn: &mut Conn) -> Option<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Some(true),
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Some(false),
        }
    }
}

/// Send `requests` at `rate` per second and write each outcome into the
/// slot of the same index of `outcomes`; a slot left `None` marks a
/// request never sent because the cutoff tripped. Request `i` is traced
/// as operation `first_op + i`: a `request` span from due time to the
/// last response byte, and a `send` span for the connect and write.
pub fn run_phase(
    addr: SocketAddr,
    requests: &[impl AsRef<[u8]>],
    outcomes: &mut [Option<Outcome>],
    rate: f64,
    cutoff: Option<Cutoff>,
    tracer: &mut Tracer,
    first_op: u64,
) {
    assert_eq!(
        requests.len(),
        outcomes.len(),
        "one outcome slot per request"
    );
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut in_flight: Vec<Conn> = Vec::with_capacity(MAX_IN_FLIGHT);
    // When each free slot became free.
    let mut free_since: Vec<Instant> = vec![start; MAX_IN_FLIGHT];
    let mut next = 0usize;
    let mut over_limit = 0usize;
    loop {
        let stopped = cutoff.is_some_and(|c| over_limit > c.allowed);
        let now = Instant::now();
        while next < requests.len() && !stopped && !free_since.is_empty() && due(next) <= now {
            let slot = free_since
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .expect("a free slot exists");
            let ready = free_since.swap_remove(slot).max(due(next));
            let sent = Instant::now();
            let late = sent.saturating_duration_since(ready);
            let result = send(addr, requests[next].as_ref());
            tracer.record("send", first_op + next as u64, sent, Instant::now());
            match result {
                Ok(stream) => in_flight.push(Conn {
                    idx: next,
                    stream,
                    buf: Vec::new(),
                    sent,
                    late,
                }),
                Err(_) => {
                    let done = Instant::now();
                    outcomes[next] = Some(Outcome {
                        status: 0,
                        body: Digest::default(),
                        latency: done.saturating_duration_since(due(next)),
                        late,
                        due: due(next) - start,
                        done: done.saturating_duration_since(start),
                    });
                    free_since.push(done);
                }
            }
            next += 1;
        }
        let more_to_send = next < requests.len() && !stopped;
        if in_flight.is_empty() && !more_to_send {
            break;
        }
        let timeout = if more_to_send && !free_since.is_empty() {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(100)
        };
        if !timeout.is_zero() {
            let streams: Vec<&TcpStream> = in_flight.iter().map(|c| &c.stream).collect();
            wait_readable(&streams, timeout);
        }
        let mut i = 0;
        while i < in_flight.len() {
            let finished = match pump(&mut in_flight[i]) {
                Some(ok) => Some(ok),
                None if in_flight[i].sent.elapsed() > STALL_LIMIT => Some(false),
                None => None,
            };
            let Some(ok) = finished else {
                i += 1;
                continue;
            };
            let conn = in_flight.swap_remove(i);
            let done = Instant::now();
            let (status, body) = if ok {
                parse_response(&conn.buf)
            } else {
                (0, Digest::default())
            };
            let latency = done.saturating_duration_since(due(conn.idx));
            tracer.record("request", first_op + conn.idx as u64, due(conn.idx), done);
            if cutoff.is_some_and(|c| latency > c.limit) {
                over_limit += 1;
            }
            outcomes[conn.idx] = Some(Outcome {
                status,
                body,
                latency,
                late: conn.late,
                due: due(conn.idx) - start,
                done: done.saturating_duration_since(start),
            });
            // Dropping the stream closes it, which ends the server's
            // drain of the connection.
            drop(conn);
            free_since.push(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server answering every connection with `200 ok` after `delay`,
    /// one connection at a time, until `n` connections were served.
    fn serve(n: usize, delay: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().take(n) {
                let mut stream = stream.unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                std::thread::sleep(delay);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
            }
        });
        (addr, handle)
    }

    #[test]
    fn every_request_is_answered_and_timed_from_its_due_time() {
        let (addr, server) = serve(20, Duration::ZERO);
        let requests = vec![b"GET / HTTP/1.1\r\n\r\n".to_vec(); 20];
        let mut tracer = Tracer::new(true);
        let mut out = vec![None; requests.len()];
        run_phase(addr, &requests, &mut out, 500.0, None, &mut tracer, 100);
        assert_eq!(tracer.named("request").count(), 20);
        assert!(tracer.named("send").all(|s| (100..120).contains(&s.op)));
        server.join().unwrap();
        for (i, o) in out.iter().enumerate() {
            let o = o.as_ref().expect("every request sent");
            assert_eq!((o.status, o.body), (200, Digest::of(b"ok")));
            assert_eq!(o.due, Duration::from_secs_f64(i as f64 / 500.0));
            assert!(o.done >= o.due + o.latency - Duration::from_micros(1));
        }
    }

    #[test]
    fn a_slow_server_trips_the_cutoff_and_queued_requests_are_late() {
        // 20 ms per request against a schedule of one per millisecond:
        // latency from due time grows, so the cutoff stops the phase.
        let (addr, server) = serve(5, Duration::from_millis(20));
        let requests = vec![b"GET / HTTP/1.1\r\n\r\n".to_vec(); 50];
        let cutoff = Cutoff {
            limit: Duration::from_millis(30),
            allowed: 1,
        };
        let mut out = vec![None; requests.len()];
        run_phase(
            addr,
            &requests,
            &mut out,
            1_000.0,
            Some(cutoff),
            &mut Tracer::new(false),
            0,
        );
        let answered: Vec<&Outcome> = out.iter().flatten().collect();
        assert!(answered.len() < requests.len(), "cutoff never tripped");
        assert!(answered.iter().filter(|o| o.latency > cutoff.limit).count() > 1);
        // Unblock the server thread's remaining accepts.
        for _ in answered.len()..5 {
            let _ = TcpStream::connect(addr);
        }
        server.join().unwrap();
    }

    #[test]
    fn responses_split_into_status_and_body() {
        assert_eq!(
            parse_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\n{}"),
            (404, Digest::of(b"{}"))
        );
        assert_eq!(parse_response(b"garbage"), (0, Digest::default()));
        assert_ne!(Digest::of(b"{}"), Digest::of(b"[]"));
    }
}
