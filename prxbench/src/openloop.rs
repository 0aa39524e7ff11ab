//! Open-loop load over one pipelined connection: requests go out on a
//! fixed schedule whatever the server's pace, responses are read back in
//! order on another thread, and every request is timed from when it was
//! *due*, so a stall also charges the requests queued behind it.

use pxv_pxml::NodeId;
use pxv_server::protocol::{parse_answer_header, parse_node_line};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// When request `i` is due, in seconds from the start, at `rate` per second.
pub fn due(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// The life of one open-loop request, in seconds from the start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as the caller sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// What a request's response looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// `ANSWER n …` plus `n` `NODE` lines.
    Answer,
    /// One `OK …` line.
    Ok,
}

/// A parsed response: the answer's nodes (empty for `OK` lines), or the
/// offending line.
pub type Reply = Result<Vec<(NodeId, f64)>, String>;

/// The stopping time shared with a running open loop, in nanoseconds
/// from its start; requests due at or after it are never sent.
pub struct StopAt(AtomicU64);

impl StopAt {
    pub fn never() -> StopAt {
        StopAt(AtomicU64::new(u64::MAX))
    }

    pub fn set(&self, secs: f64) {
        self.0.store((secs * 1e9) as u64, Ordering::SeqCst);
    }

    fn reached(&self, due_secs: f64) -> bool {
        (due_secs * 1e9) as u64 >= self.0.load(Ordering::SeqCst)
    }
}

/// Sends `lines[i]` at `start + offset + due(i, rate)` on one connection
/// until the list ends or `stop` is reached, reads every response in
/// order, and hands each to `on_reply`. Returns the timing of every
/// request sent.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    start: Instant,
    lines: &[String],
    expect: &[Expect],
    rate: f64,
    offset: f64,
    stop: &StopAt,
    mut on_reply: impl FnMut(usize, Reply),
) -> io::Result<Vec<Timing>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let sent_count = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let mut done = Vec::with_capacity(lines.len());
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let due_secs = offset + due(i, rate);
                if stop.reached(due_secs) {
                    break;
                }
                let wait = Duration::from_secs_f64(due_secs).saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let mut bytes = Vec::with_capacity(line.len() + 1);
                bytes.extend_from_slice(line.as_bytes());
                bytes.push(b'\n');
                if writer.write_all(&bytes).is_err() {
                    break;
                }
                sent.push(start.elapsed().as_secs_f64());
                sent_count.store(i + 1, Ordering::SeqCst);
            }
            sender_done.store(true, Ordering::SeqCst);
            sent
        });
        let mut i = 0;
        loop {
            if i < sent_count.load(Ordering::SeqCst) {
                let reply = read_reply(&mut reader, expect[i]);
                done.push(start.elapsed().as_secs_f64());
                let broken = matches!(&reply, Err(line) if line.starts_with("io: "));
                on_reply(i, reply);
                i += 1;
                if broken {
                    break;
                }
            } else if sender_done.load(Ordering::SeqCst) && i >= sent_count.load(Ordering::SeqCst) {
                break;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    Ok(sent
        .iter()
        .zip(&done)
        .enumerate()
        .map(|(i, (&sent, &done))| Timing {
            due: offset + due(i, rate),
            sent,
            done,
        })
        .collect())
}

fn read_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("io: server closed the connection".into()),
        Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
        Err(e) => Err(format!("io: {e}")),
    }
}

/// Reads one response of the expected shape.
pub fn read_reply(reader: &mut impl BufRead, expect: Expect) -> Reply {
    let head = read_line(reader)?;
    match expect {
        Expect::Ok if head.starts_with("OK ") => Ok(Vec::new()),
        Expect::Ok => Err(head),
        Expect::Answer => {
            let (count, _, _) = parse_answer_header(&head).map_err(|_| head.clone())?;
            (0..count)
                .map(|_| {
                    let line = read_line(reader)?;
                    parse_node_line(&line).map_err(|_| line)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_charged_from_the_due_time() {
        // 100/s: due every 10 ms. The server stalls 50 ms on request 1;
        // requests 2 and 3 were sent on time but wait behind it.
        let done = [0.001, 0.060, 0.061, 0.062, 0.041];
        let timings: Vec<Timing> = done
            .iter()
            .enumerate()
            .map(|(i, &done)| Timing {
                due: due(i, 100.0),
                sent: due(i, 100.0),
                done,
            })
            .collect();
        let lat: Vec<f64> = timings.iter().map(Timing::latency_ms).collect();
        let want = [1.0, 50.0, 41.0, 32.0, 1.0];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        assert!(timings.iter().all(|t| t.lag_ms() == 0.0));
    }

    #[test]
    fn a_late_generator_shows_as_lag_and_latency() {
        // The generator itself stalls until 50 ms, then catches up.
        let sent = [0.0, 0.050, 0.050, 0.050];
        let timings: Vec<Timing> = sent
            .iter()
            .enumerate()
            .map(|(i, &sent)| Timing {
                due: due(i, 100.0),
                sent,
                done: sent + 0.001,
            })
            .collect();
        let lag: Vec<f64> = timings.iter().map(Timing::lag_ms).collect();
        let want = [0.0, 40.0, 30.0, 20.0];
        for (got, want) in lag.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lag:?}");
        }
        // Latency from the due time includes the generator's own delay.
        assert!((timings[1].latency_ms() - 41.0).abs() < 1e-9);
    }

    #[test]
    fn replies_parse_answers_oks_and_errors() {
        let wire = b"ANSWER 2 ext=1 hits=1 mats=0 cands=2 plan=x\nNODE n3 0.5\nNODE n9 1\n\
                     OK updated edits=1\nERR engine boom\n";
        let mut r = &wire[..];
        let nodes = read_reply(&mut r, Expect::Answer).unwrap();
        assert_eq!(nodes, vec![(NodeId(3), 0.5), (NodeId(9), 1.0)]);
        assert_eq!(read_reply(&mut r, Expect::Ok), Ok(Vec::new()));
        assert_eq!(
            read_reply(&mut r, Expect::Answer),
            Err("ERR engine boom".into())
        );
        assert!(read_reply(&mut r, Expect::Ok)
            .unwrap_err()
            .starts_with("io: "));
    }

    #[test]
    fn stop_at_cuts_the_schedule() {
        let stop = StopAt::never();
        assert!(!stop.reached(1e6));
        stop.set(0.5);
        assert!(!stop.reached(0.49));
        assert!(stop.reached(0.5));
    }
}
