//! The load generator: one pipelined connection to the server.  The
//! calling thread sends on schedule; one receiver thread reads replies,
//! checks each against the reference as it lands, and reports
//! completions back so the sender can keep a closed-loop window or keep
//! one scan outstanding.  Frames go through the public `proto`
//! functions, exactly as any client's would.

use hotspot_geometry::BitImage;
use hotspot_serve::proto::{decode_response, encode_request, read_frame_body, write_frame};
use hotspot_serve::{ErrorCode, Request, Response, MAX_FRAME_LEN};
use hotspot_telemetry::{Clock, MonotonicClock};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Client-chosen trace ids carry this tag above the request id, so they
/// never collide with ids the server mints itself (small counters).
pub const TRACE_TAG: u64 = 0x5EED << 48;

/// How long a phase waits for its last replies before counting them
/// missing.
const DRAIN: Duration = Duration::from_secs(10);

/// Scans are long jobs; give them more than the server's default
/// one-second budget.
const SCAN_DEADLINE_MS: u32 = 10_000;

/// How a phase issues classify requests.
#[derive(Debug, Clone)]
pub enum Clips {
    None,
    /// Open loop: one request at each offset (ns from the phase start).
    Open(Vec<u64>),
    /// Closed loop: keep `window` requests in flight, `total` at most.
    Closed {
        window: usize,
        total: Option<usize>,
    },
}

/// One stretch of traffic on the connection.
#[derive(Debug, Clone)]
pub struct Phase {
    pub clips: Clips,
    /// Back-to-back scans (one outstanding), at most this many.
    pub scans: usize,
    /// Stop issuing new requests this long after the phase starts.
    pub until: Option<Duration>,
    /// Send client-chosen trace ids.
    pub traced: bool,
}

/// What a request asked for: a pool clip by index, or the chip scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Clip(usize),
    Scan,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Reply matched the reference.
    Ok,
    /// Typed error reply.
    Error(ErrorCode),
    /// Reply disagreed with the reference (or echoed the wrong trace).
    Mismatch,
}

/// A request on the wire (all times on the shared monotonic clock).
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub phase: usize,
    pub kind: Kind,
    /// When it was due: the schedule slot in open loop, else `sent_ns`.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub trace_id: u64,
}

/// A request with its reply.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub req: Sent,
    pub recv_ns: u64,
    pub verdict: Verdict,
}

/// Everything one connection saw.
#[derive(Debug)]
pub struct Outcome {
    pub done: Vec<Done>,
    /// Requests that never got a reply.
    pub missing: usize,
    /// Replies that matched no outstanding request.
    pub strays: usize,
    /// Clock reading at the start of each phase.
    pub phase_start_ns: Vec<u64>,
}

/// Request counts and the ways they failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: usize,
    pub ok: usize,
    pub errors: usize,
    pub mismatched: usize,
}

impl Tally {
    /// Tallies `done` against `sent` requests; whatever was sent and not answered is missing.
    pub fn of<'a>(sent: usize, done: impl IntoIterator<Item = &'a Done>) -> Tally {
        let mut t = Tally {
            sent,
            ..Tally::default()
        };
        for d in done {
            match d.verdict {
                Verdict::Ok => t.ok += 1,
                Verdict::Error(_) => t.errors += 1,
                Verdict::Mismatch => t.mismatched += 1,
            }
        }
        t
    }

    pub fn missing(&self) -> usize {
        self.sent - self.ok - self.errors - self.mismatched
    }

    pub fn failed(&self) -> usize {
        self.errors + self.mismatched + self.missing()
    }
}

/// Reference check for one reply: `true` when it is the right answer.
pub type Check<'a> = dyn Fn(Kind, &Response) -> bool + Sync + 'a;

/// The inputs a connection sends.
pub struct Payloads<'a> {
    pub clips: &'a [BitImage],
    /// Clip visiting order: the k-th clip of a phase is
    /// `order[k % order.len()]`.
    pub order: &'a [usize],
    pub chip: &'a BitImage,
    pub stride: u32,
}

/// Opens one connection to `addr`, runs `phases` in order, and returns
/// every request's fate.  `before_phase(i)` runs just before phase `i`
/// starts, while nothing is in flight on the connection.
///
/// # Errors
///
/// Transport failures on connect or send, and errors of `before_phase`.
pub fn drive(
    addr: SocketAddr,
    phases: &[Phase],
    payloads: &Payloads<'_>,
    check: &Check<'_>,
    before_phase: &mut dyn FnMut(usize) -> io::Result<()>,
) -> io::Result<Outcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let pending = Mutex::new(HashMap::<u64, Sent>::new());
    let (ev_tx, ev_rx) = mpsc::channel::<(usize, Kind)>();
    let clock = MonotonicClock;
    thread::scope(|s| {
        let receiver = s.spawn(|| receive(reader, &pending, ev_tx, check));
        let mut sender = Sender {
            stream: &stream,
            pending: &pending,
            events: &ev_rx,
            payloads,
            next_id: 1,
            clock,
        };
        let mut starts = Vec::with_capacity(phases.len());
        let mut result = Ok(());
        for (i, phase) in phases.iter().enumerate() {
            result = before_phase(i).and_then(|()| {
                starts.push(clock.now_ns());
                sender.run(i, phase)
            });
            if result.is_err() {
                break;
            }
        }
        // Unblocks the receiver's read once everything is in (or given up).
        let _ = stream.shutdown(Shutdown::Both);
        let (done, strays) = receiver.join().expect("receiver thread panicked");
        result?;
        let missing = pending.lock().expect("pending map poisoned").len();
        Ok(Outcome {
            done,
            missing,
            strays,
            phase_start_ns: starts,
        })
    })
}

struct Sender<'a> {
    stream: &'a TcpStream,
    pending: &'a Mutex<HashMap<u64, Sent>>,
    events: &'a mpsc::Receiver<(usize, Kind)>,
    payloads: &'a Payloads<'a>,
    next_id: u64,
    clock: MonotonicClock,
}

/// Per-phase sender bookkeeping.
#[derive(Default)]
struct Flight {
    clips_in_flight: usize,
    scan_out: bool,
    outstanding: usize,
}

impl Flight {
    fn complete(&mut self, kind: Kind) {
        self.outstanding -= 1;
        match kind {
            Kind::Scan => self.scan_out = false,
            Kind::Clip(_) => self.clips_in_flight -= 1,
        }
    }
}

impl Sender<'_> {
    fn run(&mut self, phase_idx: usize, phase: &Phase) -> io::Result<()> {
        let t0 = self.clock.now_ns();
        let until = phase.until.map(|u| t0 + u.as_nanos() as u64);
        let (mut clip_k, mut next_open, mut scans_sent) = (0usize, 0usize, 0usize);
        let mut f = Flight::default();
        loop {
            let now = self.clock.now_ns();
            let accepting = until.is_none_or(|u| now < u);
            if accepting && !f.scan_out && scans_sent < phase.scans {
                self.send(phase_idx, phase.traced, Kind::Scan, None)?;
                f.scan_out = true;
                f.outstanding += 1;
                scans_sent += 1;
            }
            let clips_finished = match &phase.clips {
                Clips::None => true,
                Clips::Open(at) => {
                    while next_open < at.len() && t0 + at[next_open] <= now {
                        let kind = self.clip(clip_k);
                        self.send(phase_idx, phase.traced, kind, Some(t0 + at[next_open]))?;
                        (clip_k, next_open) = (clip_k + 1, next_open + 1);
                        f.clips_in_flight += 1;
                        f.outstanding += 1;
                    }
                    next_open == at.len()
                }
                Clips::Closed { window, total } => {
                    let more = |k: usize| total.is_none_or(|t| k < t);
                    while accepting && f.clips_in_flight < *window && more(clip_k) {
                        let kind = self.clip(clip_k);
                        self.send(phase_idx, phase.traced, kind, None)?;
                        clip_k += 1;
                        f.clips_in_flight += 1;
                        f.outstanding += 1;
                    }
                    !accepting || !more(clip_k)
                }
            };
            let scans_finished = !accepting || scans_sent >= phase.scans;
            if clips_finished && scans_finished {
                break;
            }
            let mut wake = until.unwrap_or(u64::MAX);
            if let Clips::Open(at) = &phase.clips {
                if let Some(&next) = at.get(next_open) {
                    wake = wake.min(t0 + next);
                }
            }
            let timeout = Duration::from_nanos(wake.saturating_sub(self.clock.now_ns()));
            match self.events.recv_timeout(timeout) {
                Ok((p, kind)) if p == phase_idx => f.complete(kind),
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            while let Ok((p, kind)) = self.events.try_recv() {
                if p == phase_idx {
                    f.complete(kind);
                }
            }
        }
        let deadline = Instant::now() + DRAIN;
        while f.outstanding > 0 {
            match self
                .events
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok((p, kind)) if p == phase_idx => f.complete(kind),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        Ok(())
    }

    fn clip(&self, k: usize) -> Kind {
        Kind::Clip(self.payloads.order[k % self.payloads.order.len()])
    }

    fn send(
        &mut self,
        phase: usize,
        traced: bool,
        kind: Kind,
        due_ns: Option<u64>,
    ) -> io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        let trace_id = if traced { TRACE_TAG | id } else { 0 };
        let image = match kind {
            Kind::Clip(i) => &self.payloads.clips[i],
            Kind::Scan => self.payloads.chip,
        };
        let (width, height) = (image.width() as u32, image.height() as u32);
        let words = image.as_words().to_vec();
        let req = match kind {
            Kind::Clip(_) => Request::Classify {
                id,
                deadline_ms: 0,
                width,
                height,
                words,
                trace_id,
            },
            Kind::Scan => Request::Scan {
                id,
                deadline_ms: SCAN_DEADLINE_MS,
                stride: self.payloads.stride,
                width,
                height,
                words,
                trace_id,
            },
        };
        let frame = encode_request(&req);
        let sent_ns = self.clock.now_ns();
        let sent = Sent {
            phase,
            kind,
            due_ns: due_ns.unwrap_or(sent_ns),
            sent_ns,
            trace_id,
        };
        // Registered before the write, so the reply always finds it.
        self.pending
            .lock()
            .expect("pending map poisoned")
            .insert(id, sent);
        write_frame(&mut &*self.stream, &frame)
    }
}

/// Reads replies until the socket closes; returns the completions and
/// the count of replies that matched no outstanding request.
fn receive(
    mut stream: TcpStream,
    pending: &Mutex<HashMap<u64, Sent>>,
    events: mpsc::Sender<(usize, Kind)>,
    check: &Check<'_>,
) -> (Vec<Done>, usize) {
    let clock = MonotonicClock;
    let (mut done, mut strays) = (Vec::new(), 0);
    loop {
        let mut prefix = [0u8; 4];
        if stream.read_exact(&mut prefix).is_err() {
            break;
        }
        let Ok(Ok(payload)) = read_frame_body(&mut stream, prefix, MAX_FRAME_LEN) else {
            break;
        };
        let recv_ns = clock.now_ns();
        let resp = match decode_response(&payload) {
            Ok(r) => r,
            Err(_) => {
                strays += 1;
                continue;
            }
        };
        let (id, echoed_trace) = match &resp {
            Response::Classify { id, trace_id, .. }
            | Response::ScanRegions { id, trace_id, .. } => (*id, *trace_id),
            Response::Error { id, .. } => (*id, 0),
            _ => (0, 0),
        };
        let Some(req) = pending.lock().expect("pending map poisoned").remove(&id) else {
            strays += 1;
            continue;
        };
        let verdict = match &resp {
            Response::Error { code, .. } => Verdict::Error(*code),
            _ if (req.trace_id == 0 || echoed_trace == req.trace_id) && check(req.kind, &resp) => {
                Verdict::Ok
            }
            _ => Verdict::Mismatch,
        };
        done.push(Done {
            req,
            recv_ns,
            verdict,
        });
        let _ = events.send((req.phase, req.kind));
    }
    (done, strays)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(verdict: Verdict) -> Done {
        Done {
            req: Sent {
                phase: 0,
                kind: Kind::Clip(0),
                due_ns: 0,
                sent_ns: 0,
                trace_id: 0,
            },
            recv_ns: 1,
            verdict,
        }
    }

    #[test]
    fn every_way_to_fail_counts_once() {
        let replies = [
            done(Verdict::Ok),
            done(Verdict::Ok),
            done(Verdict::Error(ErrorCode::Overloaded)),
            done(Verdict::Mismatch),
        ];
        // Six sent, four answered: two still missing at the end.
        let t = Tally::of(6, &replies);
        assert_eq!((t.ok, t.errors, t.mismatched, t.missing()), (2, 1, 1, 2));
        assert_eq!(t.failed(), 4);
    }

    #[test]
    fn a_clean_run_has_no_failures() {
        let t = Tally::of(2, &[done(Verdict::Ok), done(Verdict::Ok)]);
        assert_eq!((t.failed(), t.missing()), (0, 0));
    }
}
