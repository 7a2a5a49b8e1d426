//! The host's speed, measured beside the work, so that a timing reads as
//! it would on the reference box at its usual speed.
//!
//! The reference box is a 2-vCPU guest whose host also runs other
//! guests, and its speed moves between levels: the same simulator
//! scenario took 29 ms in one and 46 ms in another, in phases lasting
//! from seconds to minutes. No statistic taken within one run removes a
//! phase that covers the whole run. So the benchmark times a fixed probe
//! right before each unit of work (a simulator round, a daemon session,
//! a scrape), on the threads that do the work, and scales the unit's
//! timing by the probe's: a unit that ran while the probe read 1.4 times
//! slow is counted at 1/1.4 of its time.
//!
//! The compute probe does small allocations with ordered-map inserts,
//! then a sort: of the kernels tried, these slowed between the two
//! levels as the simulator did (1.52x and 1.54x against its 1.57x),
//! where dependent floating-point arithmetic slowed 1.35x and an
//! L2-resident gather 1.23x. The loopback probe times round trips
//! between two threads over loopback TCP, for the daemon's verdict
//! latency, which is as much wake-ups as work. Both live in this file
//! only, so a change to the repository never changes them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the reference box, in seconds: the scale
/// that makes a speed of 1.0 mean "as usual there".
const PROBE_REFERENCE_S: f64 = 0.0120;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `rounds` rounds of small allocations and ordered-map inserts.
fn map_inserts(x: &mut u64, rounds: usize) -> usize {
    let mut entries = 0usize;
    for _ in 0..rounds {
        let mut map = BTreeMap::new();
        let mut names = Vec::new();
        for j in 0..64u64 {
            let k = xorshift(x);
            map.insert(k % 1000, j);
            names.push(k.to_string());
        }
        entries += map.len() + names.iter().map(String::len).sum::<usize>();
    }
    entries
}

/// One pass of the probe kernel on this thread.
fn kernel() -> usize {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let entries = map_inserts(&mut x, 800);
    let mut values: Vec<f64> = (0..80_000).map(|_| xorshift(&mut x) as f64).collect();
    values.sort_by(f64::total_cmp);
    entries + (values[values.len() / 2] as usize & 0xff)
}

/// Runs the probe on `threads` threads at once, this one among them (the
/// measured work's threads: the host's levels differ between vCPUs), and
/// returns the host's speed: the reference time over each thread's probe
/// time, averaged over the threads. Below 1.0, the host is slower than
/// usual.
pub fn probe(threads: usize) -> f64 {
    let timed = || {
        let t0 = Instant::now();
        black_box(kernel());
        PROBE_REFERENCE_S / t0.elapsed().as_secs_f64()
    };
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(timed)).collect();
        let mut speeds = vec![timed()];
        speeds.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("the probe kernel does not panic")),
        );
        speeds
    });
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// The loopback probe's median time on the reference box, in seconds.
const LOOPBACK_REFERENCE_S: f64 = 0.0118;
/// Round trips per loopback probe, each a tick-sized write answered by
/// a `pong`-sized reply after about a tick's worth of work.
const LOOPBACK_TRIPS: usize = 100;
const LOOPBACK_REQUEST: usize = 16 * 1024;
const LOOPBACK_WORK_ROUNDS: usize = 8;

/// The host's speed at loopback round trips: a thread of this process
/// answers tick-sized writes over loopback TCP with five bytes after
/// some work, as the daemon answers a tick with its `pong`. Two wake-ups
/// and two loopback hops are part of a round trip, and the compute probe
/// does not see their cost.
pub fn loopback_probe() -> std::io::Result<f64> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        let mut request = vec![0u8; LOOPBACK_REQUEST];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..LOOPBACK_TRIPS {
            conn.read_exact(&mut request)?;
            black_box(map_inserts(&mut x, LOOPBACK_WORK_ROUNDS));
            conn.write_all(b"pong\n")?;
        }
        Ok(())
    });
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let request = vec![b'x'; LOOPBACK_REQUEST];
    let mut reply = [0u8; 5];
    let t0 = Instant::now();
    for _ in 0..LOOPBACK_TRIPS {
        conn.write_all(&request)?;
        conn.read_exact(&mut reply)?;
    }
    let took = t0.elapsed().as_secs_f64();
    echo.join()
        .map_err(|_| std::io::Error::other("the loopback echo thread panicked"))??;
    Ok(LOOPBACK_REFERENCE_S / took)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_the_speed_positive() {
        assert_eq!(kernel(), kernel());
        let speed = probe(2);
        assert!(speed.is_finite() && speed > 0.0, "speed {speed}");
        let speed = loopback_probe().expect("loopback probe");
        assert!(speed.is_finite() && speed > 0.0, "loopback speed {speed}");
    }
}
