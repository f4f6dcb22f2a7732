//! Order statistics and the host readings the end-to-end metrics use.

use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads printed here match the
/// ones computed over the same values in Python. One sample gives (x, x).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Typical probe time on a 2-vCPU Intel Xeon VM at 2.1 GHz. Host times are
/// reported scaled to the speed at which the probe takes this long; see
/// [`HostProbe`].
pub const PROBE_REF_S: f64 = 0.010;

/// A fixed, memory-latency-bound loop timed before every request to track
/// how fast the host runs at the moment.
///
/// On a shared host the simulator slows by up to 2× for minutes at a time
/// when neighbours load the memory system, and the slowdown follows this
/// probe (random read-modify-writes over a 16 MB table). Scaling a pass's
/// time by [`PROBE_REF_S`] over the median probe time during the pass
/// removes much of that drift; the probe shares no code with the
/// simulator, so a change to the simulator moves the scaled times in full.
#[derive(Debug)]
pub struct HostProbe {
    table: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe { table: (0..1u32 << 22).collect() }
    }
}

impl HostProbe {
    /// Seconds one run of the probe loop takes now.
    pub fn measure(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            let j = (x >> 40) as usize & mask;
            self.table[j] = self.table[j].wrapping_add(x as u32);
        }
        std::hint::black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

/// User plus system CPU time of this process, from `/proc/self/stat`.
/// Linux reports both in USER_HZ ticks, which is 100 per second on every
/// mainstream kernel configuration.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn host_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(HostProbe::default().measure() > 0.0);
        let t0 = cpu_time();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= t0);
    }
}
