//! The benchmark's own arithmetic: order statistics, span coverage,
//! ratios, and the `/proc` readers behind the CPU and memory metrics.

/// Percentile ladder for tail reporting, highest first, in tenths of a
/// percent so that the count beyond each rung is exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= TAIL_MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// Value at [`tail_percentile`] of `values`, with the percentile used.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len())?;
    Some((p, quantile(values, p / 100.0)?))
}

/// `part / base`, or 0 when the base is empty. Every ratio the benchmark
/// reports goes through here so that its base is named at the call site.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// A closed-open time interval in nanoseconds since the benchmark epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds of `parent` covered by the union of `children`, each
/// clipped to the parent. Overlapping children count once.
pub fn covered_ns(parent: Span, children: &mut [Span]) -> u64 {
    children.sort_unstable_by_key(|s| s.start);
    let mut covered = 0;
    let mut cursor = parent.start;
    for c in children.iter() {
        let start = c.start.max(cursor);
        let end = c.end.min(parent.end);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Nanoseconds covered by the union of `spans`.
pub fn union_ns(spans: &mut [Span]) -> u64 {
    let Some(start) = spans.iter().map(|s| s.start).min() else {
        return 0;
    };
    let end = spans.iter().map(|s| s.end).max().unwrap_or(start);
    covered_ns(Span { start, end }, spans)
}

/// Self time of `parent`: its length minus what its children cover.
pub fn self_ns(parent: Span, children: &mut [Span]) -> u64 {
    parent.len() - covered_ns(parent, children)
}

/// User and system CPU time of a process or thread, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Clock ticks per second of `utime`/`stime` in `/proc/*/stat`. Linux
/// fixes `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// Parses `utime` and `stime` (fields 14 and 15) out of a `/proc/*/stat`
/// line. The command name (field 2) is parenthesised and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_proc_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// CPU time of this process so far.
pub fn process_cpu() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .expect("/proc/self/stat is readable and well formed")
}

/// Summed CPU time of this process's threads whose name starts with
/// `prefix` (thread names are read from `/proc/self/task/*/comm`).
pub fn threads_cpu(prefix: &str) -> CpuTimes {
    let mut sum = CpuTimes::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return sum;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let named = std::fs::read_to_string(dir.join("comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if !named {
            continue;
        }
        if let Some(t) = std::fs::read_to_string(dir.join("stat"))
            .ok()
            .and_then(|s| parse_proc_stat(&s))
        {
            sum.user_s += t.user_s;
            sum.sys_s += t.sys_s;
        }
    }
    sum
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/*/status`, in
/// bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm(&s))
        .expect("/proc/self/status has a VmHWM line")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&values).unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        assert_eq!(tail(&values[..15]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), Some(1.0));
    }

    #[test]
    fn proc_stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (bench (x) y) R 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20 0 3 0 100 \
                    1000 200 18446744073709551615";
        let t = parse_proc_stat(line).unwrap();
        assert!((t.user_s - 2.5).abs() < 1e-12);
        assert!((t.sys_s - 0.37).abs() < 1e-12);
        assert!((t.total() - 2.87).abs() < 1e-12);
        assert_eq!(parse_proc_stat("4242 (cut) R 1 2"), None);
        assert_eq!(parse_proc_stat("no parens at all"), None);
        let live = process_cpu();
        assert!(live.user_s >= 0.0 && live.sys_s >= 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_bytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1234 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let parent = Span {
            start: 100,
            end: 200,
        };
        assert_eq!(self_ns(parent, &mut []), 100);
        // Disjoint children.
        let mut kids = [
            Span {
                start: 110,
                end: 120,
            },
            Span {
                start: 150,
                end: 170,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 70);
        // Overlapping children count once; order does not matter.
        let mut kids = [
            Span {
                start: 140,
                end: 160,
            },
            Span {
                start: 110,
                end: 150,
            },
            Span {
                start: 120,
                end: 130,
            },
        ];
        assert_eq!(covered_ns(parent, &mut kids), 50);
        assert_eq!(self_ns(parent, &mut kids), 50);
        // Children sticking out of the parent are clipped to it.
        let mut kids = [
            Span {
                start: 50,
                end: 120,
            },
            Span {
                start: 190,
                end: 300,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 70);
        // A child covering everything leaves no self time.
        let mut kids = [Span {
            start: 0,
            end: 1000,
        }];
        assert_eq!(self_ns(parent, &mut kids), 0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(&mut []), 0);
        let mut spans = [
            Span { start: 30, end: 40 },
            Span { start: 0, end: 10 },
            Span { start: 5, end: 15 },
        ];
        assert_eq!(union_ns(&mut spans), 25);
    }

    #[test]
    fn ratios_name_their_base_and_survive_an_empty_one() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
