//! Wall time with the hypervisor's steal removed.
//!
//! On a shared virtual machine the hypervisor runs other guests on this
//! guest's CPUs; the guest counts that time as "steal" in `/proc/stat`. It
//! varies from minute to minute with the neighbours' load and would swamp
//! the differences the benchmark exists to show, so every timing it
//! reports is wall time scaled by the share of busy CPU time that was not
//! stolen while it ran. On an unshared host nothing is stolen and the
//! result is the plain wall time.

use std::time::Instant;

/// Host-wide CPU time in clock ticks.
#[derive(Debug, Clone, Copy)]
struct Ticks {
    steal: u64,
    /// Ticks some CPU wanted to run: user, nice, system, irq, softirq and
    /// steal (not idle or iowait).
    busy: u64,
}

fn ticks() -> Option<Ticks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let (user, nice, system, irq, softirq, steal) = (
        *f.first()?,
        *f.get(1)?,
        *f.get(2)?,
        *f.get(5)?,
        *f.get(6)?,
        *f.get(7)?,
    );
    Some(Ticks {
        steal,
        busy: user + nice + system + irq + softirq + steal,
    })
}

/// Measures one interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    ticks: Option<Ticks>,
}

/// A measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Elapsed wall seconds.
    pub wall: f64,
    /// Share of busy CPU time not stolen during the interval (1 when
    /// nothing was stolen or the counters are unreadable).
    pub kept: f64,
}

impl Lap {
    /// Wall seconds less the stolen share.
    pub fn seconds(&self) -> f64 {
        self.wall * self.kept
    }
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            ticks: ticks(),
            start: Instant::now(),
        }
    }

    pub fn lap(&self) -> Lap {
        let wall = self.start.elapsed().as_secs_f64();
        let kept = match (self.ticks, ticks()) {
            (Some(a), Some(b)) if b.busy > a.busy => {
                1.0 - (b.steal - a.steal) as f64 / (b.busy - a.busy) as f64
            }
            _ => 1.0,
        };
        Lap { wall, kept }
    }
}
