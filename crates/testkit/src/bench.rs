//! A minimal benchmark harness shaped like `criterion`'s API surface, so
//! the 11 bench binaries in `crates/bench` kept their structure when the
//! external dependency was removed: `Criterion`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`/`iter_custom`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Methodology, per benchmark:
//!
//! 1. **Warmup** — run the payload until ~[`Criterion::warmup_ms`] elapses
//!    (fills caches, spins up cache worker threads).
//! 2. **Calibration** — pick an iteration count so one sample lasts at
//!    least ~1 ms (or one iteration, whichever is longer).
//! 3. **Sampling** — take `sample_size` fixed-iteration samples and report
//!    per-iteration **median**, **p95**, mean, min, and max.
//!
//! Each group writes `BENCH_<group>.json` under
//! `target/testkit-bench/` (override with `TESTKIT_BENCH_DIR`), one
//! object per benchmark, so runs diff cleanly in CI. `calib_ns` is the
//! host calibration kernel ([`calib_ns`]) timed in the same process when
//! the group finished:
//!
//! ```json
//! {
//!   "group": "fig4",
//!   "calib_ns": 341230.0,
//!   "benchmarks": [
//!     {"name": "Baseline", "samples": 10, "iters_per_sample": 3,
//!      "median_ns": 812345.0, "p95_ns": 901234.0, "mean_ns": 823456.1,
//!      "min_ns": 799999.0, "max_ns": 912345.0}
//!   ]
//! }
//! ```
//!
//! Environment knobs: `TESTKIT_BENCH_SAMPLES` (override every group's
//! sample count), `TESTKIT_BENCH_WARMUP_MS`, `TESTKIT_BENCH_DIR`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness entry point; shaped like `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    /// Warmup budget per benchmark, in milliseconds.
    pub warmup_ms: u64,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let warmup_ms = std::env::var("TESTKIT_BENCH_WARMUP_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        Criterion {
            warmup_ms,
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl ToString) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            results: Vec::new(),
        }
    }
}

/// Per-iteration timing statistics for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark name within its group.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (after calibration).
    pub iters_per_sample: u64,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time in nanoseconds.
    pub max_ns: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

impl BenchStats {
    fn from_samples(name: String, iters: u64, per_iter_ns: &mut [f64]) -> Self {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        BenchStats {
            name,
            samples: per_iter_ns.len(),
            iters_per_sample: iters,
            median_ns: percentile(per_iter_ns, 0.5),
            p95_ns: percentile(per_iter_ns, 0.95),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len().max(1) as f64,
            min_ns: per_iter_ns.first().copied().unwrap_or(0.0),
            max_ns: per_iter_ns.last().copied().unwrap_or(0.0),
        }
    }
}

/// A named collection of benchmarks reported and serialized together.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
    results: Vec<BenchStats>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    fn sample_count(&self) -> usize {
        std::env::var("TESTKIT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                self.sample_size
                    .unwrap_or(self.criterion.default_sample_size)
            })
            .max(2)
    }

    /// Warmup + calibration: returns the iteration count per sample.
    ///
    /// Calibrating off a single pass (this loop used to keep only the LAST
    /// warmup measurement) let one descheduled pass pick a wildly wrong
    /// iteration count, which is exactly how `norec/w4`-style small-tx
    /// benches went noisy run-to-run. Keep the MINIMUM per-iteration time
    /// across all warmup passes — the best observation is the least
    /// contaminated estimate of the payload's true cost — and always take
    /// a few passes even once the time budget is spent (long payloads bail
    /// out via the 4× budget cap instead).
    fn calibrate(&self, f: &mut impl FnMut(&mut Bencher)) -> u64 {
        const MIN_WARMUP_PASSES: u32 = 3;
        let warmup_budget = Duration::from_millis(self.criterion.warmup_ms);
        let mut iters = 1u64;
        let mut one = Duration::MAX;
        let mut passes = 0u32;
        let warmup_start = Instant::now();
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            one = one.min(b.elapsed.max(Duration::from_nanos(1)) / iters as u32);
            passes += 1;
            let spent = warmup_start.elapsed();
            if spent >= warmup_budget
                && (passes >= MIN_WARMUP_PASSES || spent >= warmup_budget * 4)
            {
                break;
            }
        }
        // One sample should last >= ~1ms so Instant resolution is noise.
        let target = Duration::from_millis(1);
        if one < target {
            iters = (target.as_nanos() / one.as_nanos().max(1)).clamp(1, 1 << 20) as u64;
        }
        iters
    }

    fn one_sample(f: &mut impl FnMut(&mut Bencher), iters: u64) -> f64 {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        b.elapsed.as_nanos() as f64 / iters as f64
    }

    fn record(&mut self, id: String, iters: u64, per_iter_ns: &mut [f64]) {
        let stats = BenchStats::from_samples(id, iters, per_iter_ns);
        println!(
            "{:<40} median {:>12} p95 {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.name, stats.name),
            format_ns(stats.median_ns),
            format_ns(stats.p95_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
    }

    /// Runs one benchmark. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_custom`].
    pub fn bench_function(&mut self, id: impl ToString, mut f: impl FnMut(&mut Bencher)) {
        let id = id.to_string();
        let samples = self.sample_count();
        let iters = self.calibrate(&mut f);
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            per_iter_ns.push(Self::one_sample(&mut f, iters));
        }
        self.record(id, iters, &mut per_iter_ns);
    }

    /// Runs two benchmarks with their timed samples **interleaved** in
    /// time: a1 b1 a2 b2 … instead of a1..aN b1..bN.
    ///
    /// Use this when the two benchmarks will be compared against each
    /// other (a before/after or slow-path/fast-path pair). Host noise on
    /// shared machines drifts in epochs that last seconds — long enough
    /// that two back-to-back benchmark runs can land in different noise
    /// regimes, skewing their ratio by 50% or more run-to-run. Alternating
    /// samples makes both arms see the same epochs, so their medians stay
    /// comparable even when the absolute numbers wander.
    pub fn bench_pair(
        &mut self,
        id_a: impl ToString,
        mut f_a: impl FnMut(&mut Bencher),
        id_b: impl ToString,
        mut f_b: impl FnMut(&mut Bencher),
    ) {
        let samples = self.sample_count();
        let iters_a = self.calibrate(&mut f_a);
        let iters_b = self.calibrate(&mut f_b);
        let mut ns_a: Vec<f64> = Vec::with_capacity(samples);
        let mut ns_b: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            ns_a.push(Self::one_sample(&mut f_a, iters_a));
            ns_b.push(Self::one_sample(&mut f_b, iters_b));
        }
        self.record(id_a.to_string(), iters_a, &mut ns_a);
        self.record(id_b.to_string(), iters_b, &mut ns_b);
    }

    /// Finishes the group: times the host calibration kernel, writes
    /// `BENCH_<group>.json` and returns the collected stats so callers can
    /// assert intra-run invariants (e.g. a fast-path/slow-path ratio
    /// floor) that stay meaningful even when host noise moves every
    /// absolute number together.
    pub fn finish(&mut self) -> Vec<BenchStats> {
        let dir = std::env::var("TESTKIT_BENCH_DIR")
            .unwrap_or_else(|_| "target/testkit-bench".to_owned());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let json = self.to_json(calib_ns());
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("[testkit] could not write {}: {e}", path.display());
        } else {
            println!("[testkit] wrote {}", path.display());
        }
        std::mem::take(&mut self.results)
    }

    /// The group's results as a JSON document, with the host calibration
    /// time measured alongside them.
    pub fn to_json(&self, calib_ns: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"group\": {},\n  \"calib_ns\": {calib_ns:.1},\n  \"benchmarks\": [\n",
            json_str(&self.name)
        ));
        for (i, b) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"samples\": {}, \"iters_per_sample\": {}, \
                 \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
                json_str(&b.name),
                b.samples,
                b.iters_per_sample,
                b.median_ns,
                b.p95_ns,
                b.mean_ns,
                b.min_ns,
                b.max_ns,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Times a fixed in-process kernel, an integer mixing loop plus 1 KiB
/// copies, as the median of 15 runs in nanoseconds. The kernel's cost
/// tracks how fast this host runs today, so reports recorded on different
/// hosts or days can be compared in host-normalized units
/// ([`host_scale`]). It is the same kernel as `mcbench`'s `host.calib_ns`.
pub fn calib_ns() -> f64 {
    let src = [0x5au8; 1024];
    let mut dst = [0u8; 1024];
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..100_000u64 {
                x = (x ^ (x >> 29))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(i);
            }
            black_box(x);
            for _ in 0..1_000 {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    percentile(&samples, 0.5)
}

// ---------------------------------------------------------------------
// Report comparison (the offline regression gate)
// ---------------------------------------------------------------------

/// Reads a report's `calib_ns`; `None` for reports written before the
/// field existed.
pub fn parse_calib(json: &str) -> Option<f64> {
    let key = "\"calib_ns\": ";
    let rest = &json[json.find(key)? + key.len()..];
    let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit())?;
    rest[..end].parse().ok().filter(|v: &f64| *v > 0.0)
}

/// The factor that converts fresh nanoseconds into the baseline host's
/// nanoseconds: baseline calibration over fresh calibration. A host
/// running twice as slow doubles both the kernel and the benchmarks, so
/// scaled fresh times compare with the baseline as if measured there.
/// 1.0 when either report carries no calibration.
pub fn host_scale(baseline_json: &str, fresh_json: &str) -> f64 {
    match (parse_calib(baseline_json), parse_calib(fresh_json)) {
        (Some(b), Some(f)) => b / f,
        _ => 1.0,
    }
}

/// One benchmark's statistics extracted from a `BENCH_<group>.json` report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportEntry {
    /// Benchmark name within its group.
    pub name: String,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// Minimum per-iteration nanoseconds (the low-noise cost estimator).
    pub min_ns: f64,
}

/// Parses the `benchmarks` array of a report produced by
/// [`BenchmarkGroup::finish`]. Only `name`, `median_ns`, and `min_ns` are
/// extracted; the parser is deliberately matched to our own writer, not a
/// general JSON reader.
pub fn parse_report(json: &str) -> Vec<ReportEntry> {
    let mut out = Vec::new();
    let mut rest = json;
    // Skip the group header so its "name"-less prefix can't confuse us.
    if let Some(i) = rest.find("\"benchmarks\"") {
        rest = &rest[i..];
    }
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + "\"name\": \"".len()..];
        let mut name = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = rest.len();
        while let Some((j, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        name.push(match esc {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    consumed = j + 1;
                    break;
                }
                c => name.push(c),
            }
        }
        rest = &rest[consumed..];
        let field = |rest: &str, key: &str| -> Option<(f64, usize)> {
            let k = rest.find(key)?;
            let num = &rest[k + key.len()..];
            let end = num
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(num.len());
            num[..end].parse::<f64>().ok().map(|v| (v, k + key.len() + end))
        };
        let Some((median, _)) = field(rest, "\"median_ns\": ") else {
            break;
        };
        // min_ns sits after median_ns in the writer's field order.
        let Some((min, consumed)) = field(rest, "\"min_ns\": ") else {
            break;
        };
        out.push(ReportEntry {
            name,
            median_ns: median,
            min_ns: min,
        });
        rest = &rest[consumed..];
    }
    out
}

/// The verdict for one benchmark present in both reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median (ns).
    pub base_ns: f64,
    /// Fresh minimum (ns, host-scaled) — already the optimistic
    /// estimate, yet still above the gate.
    pub fresh_ns: f64,
}

/// Compares a fresh report against a committed baseline.
///
/// The gate compares the **fresh minimum** against the **baseline
/// median**: host noise (frequency scaling, co-tenants) only ever adds
/// time, so a fresh run's min is a stable cost estimator, while the
/// baseline's median sits a noise-margin above its own floor. A real
/// regression shifts the whole distribution — min included — past the
/// baseline median; a noisy run does not. (Median-vs-median flapped by
/// ±60% between consecutive runs on the reference host.)
///
/// Fresh times are first multiplied by `scale` ([`host_scale`]), so the
/// comparison is in the baseline host's units. A benchmark **regresses**
/// when the scaled `fresh.min_ns` exceeds `base.median_ns` by more than
/// `threshold` (a fraction: 0.15 = 15%) AND by more than an absolute 5ns
/// floor (sub-nanosecond medians — e.g. the alloc-count pseudo-benches
/// scaled ×1000 — would otherwise flap on noise). A zero baseline is a
/// hard promise: any nonzero fresh value fails regardless of the
/// threshold and the scale (that is how "zero allocations per commit"
/// stays pinned). Benchmarks missing from either side are ignored —
/// renames are not regressions.
pub fn compare_reports(
    baseline: &[ReportEntry],
    fresh: &[ReportEntry],
    threshold: f64,
    scale: f64,
) -> Vec<Regression> {
    let mut bad = Vec::new();
    for b in baseline {
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            continue;
        };
        let fresh_ns = f.min_ns * scale;
        let regressed = if b.median_ns == 0.0 {
            f.min_ns > 0.0
        } else {
            let delta = fresh_ns - b.median_ns;
            delta > b.median_ns * threshold && delta > 5.0
        };
        if regressed {
            bad.push(Regression {
                name: b.name.clone(),
                base_ns: b.median_ns,
                fresh_ns,
            });
        }
    }
    bad
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Times the benchmark payload; handed to the `bench_function` closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `f`, black-boxing the result so
    /// the optimizer cannot delete the payload.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Lets the payload time itself: `f` receives the iteration count and
    /// returns the total elapsed time (criterion's `iter_custom`).
    pub fn iter_custom(&mut self, mut f: impl FnMut(u64) -> Duration) {
        self.elapsed = f(self.iters);
    }
}

/// Bundles bench functions under one name, like `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Emits `main` for a bench binary (`harness = false`), like
/// `criterion_main!`. Ignores harness CLI arguments such as `--bench`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_and_blackboxes() {
        let mut c = Criterion {
            warmup_ms: 1,
            default_sample_size: 3,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(3);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(g.results.len(), 1);
        let s = &g.results[0];
        assert!(s.median_ns > 0.0);
        assert!(s.p95_ns >= s.median_ns);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn iter_custom_uses_reported_time() {
        let mut c = Criterion {
            warmup_ms: 0,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(2);
        g.bench_function("fixed", |b| {
            b.iter_custom(|iters| Duration::from_micros(10) * iters as u32)
        });
        let s = &g.results[0];
        // 10µs per iteration, exactly.
        assert!((s.median_ns - 10_000.0).abs() < 1.0, "{s:?}");
    }

    #[test]
    fn calibration_ignores_outlier_warmup_pass() {
        let mut c = Criterion {
            warmup_ms: 1,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(2);
        let mut calls = 0u32;
        // The first warmup pass claims to be absurdly slow (a descheduled
        // pass); calibration must use the minimum across passes, not the
        // last/only observation, or iters_per_sample collapses to 1.
        g.bench_function("outlier", |b| {
            calls += 1;
            let slow = calls == 1;
            b.iter_custom(move |iters| {
                if slow {
                    Duration::from_millis(50) * iters as u32
                } else {
                    Duration::from_micros(10) * iters as u32
                }
            });
        });
        let s = &g.results[0];
        assert!(s.iters_per_sample >= 50, "min-of-warmup calibration: {s:?}");
        assert!((s.median_ns - 10_000.0).abs() < 1.0, "{s:?}");
    }

    #[test]
    fn json_shape_is_stable() {
        let mut c = Criterion {
            warmup_ms: 0,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("fig\"x");
        g.sample_size(2);
        g.bench_function("a/b", |b| b.iter_custom(|i| Duration::from_nanos(5) * i as u32));
        let json = g.to_json(1234.5);
        assert!(json.contains("\"group\": \"fig\\\"x\""), "{json}");
        assert_eq!(parse_calib(&json), Some(1234.5), "{json}");
        assert!(json.contains("\"median_ns\""), "{json}");
        assert!(json.contains("\"p95_ns\""), "{json}");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
    }

    #[test]
    fn parse_report_roundtrips_writer_output() {
        let mut c = Criterion {
            warmup_ms: 0,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("gate");
        g.sample_size(2);
        g.bench_function("eager/w4", |b| {
            b.iter_custom(|i| Duration::from_nanos(100) * i as u32)
        });
        g.bench_function("norec/\"quoted\"", |b| {
            b.iter_custom(|i| Duration::from_nanos(200) * i as u32)
        });
        let entries = parse_report(&g.to_json(1.0));
        assert_eq!(entries.len(), 2, "{entries:?}");
        assert_eq!(entries[0].name, "eager/w4");
        assert!((entries[0].median_ns - 100.0).abs() < 1.0, "{entries:?}");
        assert!((entries[0].min_ns - 100.0).abs() < 1.0, "{entries:?}");
        assert_eq!(entries[1].name, "norec/\"quoted\"");
        assert!((entries[1].median_ns - 200.0).abs() < 1.0, "{entries:?}");
        assert!((entries[1].min_ns - 200.0).abs() < 1.0, "{entries:?}");
    }

    #[test]
    fn compare_flags_only_true_regressions() {
        // In these fixtures the fresh run's min sits 20% under its median
        // — the noise margin the min-vs-baseline-median gate exists for.
        let e = |name: &str, median_ns: f64| ReportEntry {
            name: name.into(),
            median_ns,
            min_ns: median_ns * 0.8,
        };
        let baseline = [
            e("a", 100.0),
            e("b", 100.0),
            e("tiny", 2.0),
            e("zero", 0.0),
            e("gone", 50.0),
        ];
        let fresh = [
            e("a", 143.0),  // min 114.4 — within threshold of base median
            e("b", 150.0),  // min 120.0 — regression (+20% past the gate)
            e("tiny", 4.0), // +100% but under the 5ns floor
            e("zero", 0.0), // pinned at zero, still zero
            e("new", 9.0),  // not in baseline — ignored
        ];
        let bad = compare_reports(&baseline, &fresh, 0.15, 1.0);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].name, "b");
        assert_eq!(bad[0].base_ns, 100.0);
        assert_eq!(bad[0].fresh_ns, 120.0);

        // A zero baseline is a hard promise: any nonzero fresh fails.
        let bad = compare_reports(&[e("zero", 0.0)], &[e("zero", 1.0)], 0.15, 0.5);
        assert_eq!(bad.len(), 1, "{bad:?}");

        // A noisy-but-honest run never fails: median drifted +60% while
        // the floor stayed put.
        let noisy = [ReportEntry {
            name: "a".into(),
            median_ns: 160.0,
            min_ns: 98.0,
        }];
        assert!(compare_reports(&[e("a", 100.0)], &noisy, 0.15, 1.0).is_empty());

        // Improvements never fail, however large.
        assert!(compare_reports(&[e("a", 100.0)], &[e("a", 10.0)], 0.15, 1.0).is_empty());
    }

    #[test]
    fn compare_normalizes_by_host_calibration() {
        let base = r#"{"group": "g", "calib_ns": 100.0, "benchmarks": []}"#;
        let slow = r#"{"group": "g", "calib_ns": 200.0, "benchmarks": []}"#;
        let legacy = r#"{"group": "g", "benchmarks": []}"#;
        assert_eq!(host_scale(base, slow), 0.5);
        assert_eq!(host_scale(legacy, slow), 1.0, "no baseline calibration");
        assert_eq!(host_scale(base, legacy), 1.0, "no fresh calibration");
        let e = |median_ns: f64, min_ns: f64| ReportEntry {
            name: "a".into(),
            median_ns,
            min_ns,
        };
        // The same code on a host twice as slow: twice the raw time, the
        // same host-normalized time.
        assert!(compare_reports(&[e(100.0, 95.0)], &[e(200.0, 190.0)], 0.5, 0.5).is_empty());
        assert_eq!(compare_reports(&[e(100.0, 95.0)], &[e(200.0, 190.0)], 0.5, 1.0).len(), 1);
        // A real 2x regression on that slower host still fails.
        let bad = compare_reports(&[e(100.0, 95.0)], &[e(400.0, 380.0)], 0.5, 0.5);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].fresh_ns, 190.0);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        let t = calib_ns();
        assert!(t > 1_000.0, "calibration kernel too fast to time: {t}ns");
    }
}
