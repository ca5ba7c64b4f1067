//! Open-loop load: requests are due on a fixed schedule whether or not
//! earlier ones have finished, and each is timed from when it was *due*,
//! so a stall is charged to every request it delays.

use std::time::{Duration, Instant};

/// Latencies (from due time to completion) and generator lag of one
/// open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    pub latencies_ns: Vec<u64>,
    /// Largest delay between a request's due time and its send.
    pub max_lag_ns: u64,
}

/// Issues `op(i)` for request `i` due at `start + i / rate`, for every due
/// time inside `duration`. One request is in flight at a time; a request
/// that comes due while another is in flight is sent as soon as that one
/// completes, and still timed from its due time.
pub fn run<E>(
    rate: f64,
    duration: Duration,
    mut op: impl FnMut(u64) -> Result<(), E>,
) -> Result<OpenLoopRun, E> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let count = (duration.as_secs_f64() * rate).floor() as u64;
    let mut out = OpenLoopRun {
        latencies_ns: Vec::with_capacity(count as usize),
        max_lag_ns: 0,
    };
    let start = Instant::now();
    for i in 0..count {
        let due = start + period.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        out.max_lag_ns = out.max_lag_ns.max(nanos(sent - due));
        op(i)?;
        out.latencies_ns.push(nanos(due.elapsed()));
    }
    Ok(out)
}

/// Sleeps until shortly before `t`, then spins: sleep alone overshoots by
/// the scheduler's wake-up latency, which would show up as generator lag.
pub fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_request_is_timed_from_its_due_time() {
        // 100/s for 50 ms: requests due at 0, 10, 20, 30, 40 ms. The first
        // stalls for 35 ms, so requests 1..=3 go out late; each is charged
        // the wait since its due time, not just its own (instant) service.
        let r = run(100.0, Duration::from_millis(50), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(35));
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(r.latencies_ns.len(), 5);
        let ms = |ns: u64| ns as f64 / 1e6;
        assert!(ms(r.latencies_ns[0]) >= 35.0);
        assert!(ms(r.latencies_ns[1]) >= 25.0, "{:?}", r.latencies_ns);
        assert!(ms(r.latencies_ns[2]) >= 15.0, "{:?}", r.latencies_ns);
        assert!(ms(r.max_lag_ns) >= 25.0);
    }

    #[test]
    fn an_on_time_request_is_not_charged_for_the_schedule() {
        let r = run(1000.0, Duration::from_millis(20), |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(r.latencies_ns.len(), 20);
        // Far below the 1 ms period: no request waited on the schedule.
        let mut sorted = r.latencies_ns.clone();
        sorted.sort_unstable();
        assert!(sorted[10] < 500_000, "{sorted:?}");
    }
}
