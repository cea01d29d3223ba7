//! One core, and how fast it is going: what makes runs on a shared host
//! comparable.
//!
//! The builder box is a 2-vCPU guest on a shared host, and what a request
//! costs on it drifts between 1× and 2× over tens of seconds, with no steal
//! time reported: user-space arithmetic slows by up to a sixth, a socket
//! system call by up to a half, whatever the benchmark itself is doing. Two
//! things are done about it.
//!
//! [`pin_to_one_cpu`] confines the benchmark, and every process and thread
//! it starts afterwards, to one core. With the callers and the fleet spread
//! over two, most of a request was vCPU halts and inter-processor wake-ups
//! through the hypervisor, and the same code ran anywhere between 8k and
//! 37k req/s from one second to the next.
//!
//! [`Reference`] times a small fixed unit of work on that core every 10 ms,
//! all through the run: some arithmetic and some loopback socket calls,
//! which is what a request is made of. The median unit over a window says
//! how fast the core was going in it, and CPU-bound readings of that window
//! are scaled to the speed at which a unit takes [`NOMINAL_UNIT_NS`]
//! (README, "Steadiness", has what that bought).

use std::fs;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What a unit takes on the builder box when the host leaves the core
/// alone. Only a scale: every reading scaled by it is "at the speed of a
/// core that does a unit in this time".
pub const NOMINAL_UNIT_NS: f64 = 50_000.0;

/// Time between two units: a duty cycle of two thirds of a percent.
const GAP: Duration = Duration::from_millis(10);

const TABLE: usize = 1 << 11;
const ROUNDS: usize = 7_500;
const ROUND_TRIPS: usize = 8;

/// The fixed unit of work, on a loopback TCP connection from this thread to
/// itself so that nothing in it waits for another thread.
struct Unit {
    table: [u64; TABLE],
    near: TcpStream,
    far: TcpStream,
}

impl Unit {
    fn new() -> io::Result<Unit> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        let mut table = [0u64; TABLE];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        Ok(Unit { table, near, far })
    }

    /// User-space half: four independent multiply-rotate-load chains over a
    /// table that fits the L1 cache. Kernel half: a 64-byte message sent
    /// and received [`ROUND_TRIPS`] times.
    fn run(&mut self) -> io::Result<u64> {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut lanes = [1u64, 2, 3, 4];
        for _ in 0..ROUNDS {
            for lane in &mut lanes {
                let slot = (*lane >> (64 - 11)) as usize;
                *lane = lane.rotate_left(7).wrapping_mul(K) ^ self.table[slot];
            }
        }
        let mut message = [0u8; 64];
        for _ in 0..ROUND_TRIPS {
            self.near.write_all(&message)?;
            self.far.read_exact(&mut message)?;
        }
        Ok(lanes
            .iter()
            .fold(u64::from(message[0]), |acc, lane| acc ^ lane))
    }
}

/// A thread that times one unit of work every [`GAP`] until dropped.
pub struct Reference {
    /// When each unit started and how many ns it took, in time order.
    samples: Arc<Mutex<Vec<(Instant, u64)>>>,
    stop: Arc<AtomicBool>,
    ticker: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> io::Result<Reference> {
        let mut unit = Unit::new()?;
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (sink, stopped) = (Arc::clone(&samples), Arc::clone(&stop));
        let ticker = thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                let start = Instant::now();
                // A broken loopback connection ends the ticking; windows
                // without units then read nominal speed.
                let Ok(checksum) = unit.run() else { break };
                let took = start.elapsed().as_nanos() as u64;
                black_box(checksum);
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((start, took));
                thread::park_timeout(GAP);
            }
        });
        Ok(Reference {
            samples,
            stop,
            ticker: Some(ticker),
        })
    }

    /// Speed of the core between `from` and `to`, 1.0 being nominal: the
    /// median unit in that interval against [`NOMINAL_UNIT_NS`]. The median,
    /// because a unit that was preempted half-way says nothing about speed.
    /// 1.0 when no unit fell inside.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        let first = samples.partition_point(|&(at, _)| at < from);
        let last = samples.partition_point(|&(at, _)| at < to);
        let mut took: Vec<u64> = samples[first..last].iter().map(|&(_, ns)| ns).collect();
        drop(samples);
        if took.is_empty() {
            return 1.0;
        }
        took.sort_unstable();
        NOMINAL_UNIT_NS / took[took.len() / 2] as f64
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(ticker) = self.ticker.take() {
            ticker.thread().unpark();
            let _ = ticker.join();
        }
    }
}

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
fn last_cpu(list: &str) -> Option<u32> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Confine the calling thread, and so every thread and process it starts
/// from here on, to the last CPU it is allowed on (the first takes most of
/// the interrupts). The workspace forbids `unsafe` and vendors no libc, so
/// the `sched_setaffinity` call is made by `taskset` from util-linux.
/// Returns the CPU, or why the run stays unpinned.
pub fn pin_to_one_cpu() -> Result<u32, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(last_cpu)
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let done = Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if done.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset: {done}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_lists_end_in_their_last_cpu() {
        assert_eq!(last_cpu("0-1\n"), Some(1));
        assert_eq!(last_cpu("\t0,2-3"), Some(3));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu("0-3,8"), Some(8));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn the_reference_ticks_and_reads_a_plausible_speed() {
        let begin = Instant::now();
        let reference = Reference::start().expect("loopback sockets");
        while reference.samples.lock().unwrap().len() < 5 {
            thread::park_timeout(GAP);
        }
        let speed = reference.speed(begin, Instant::now());
        assert!(speed > 0.01 && speed < 100.0, "{speed}");
        // No unit inside the interval: nominal.
        assert_eq!(reference.speed(begin, begin), 1.0);
    }
}
