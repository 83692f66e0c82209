//! In-memory span recorder for the traced runs.
//!
//! A span is an interval `[start, end)` with a name, the span that was
//! open when it began (its parent), and a tag (phase index or request
//! id). Hot per-node or per-labelling loops do not open a span per item:
//! they add measured durations to an *accumulator* under the enclosing
//! span, so clock reads stay at chunk granularity. A span's self time is
//! its duration minus the time its child spans and accumulators cover.
//! Everything stays in memory until [`Tracer::write`] at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    tag: u64,
}

struct Accum {
    name: &'static str,
    parent: usize,
    total_ns: u64,
    count: u64,
}

/// Records spans and accumulators relative to one origin instant.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    accums: Vec<Accum>,
    open: Vec<usize>,
}

/// Handle of an accumulator registered under the currently open span.
#[derive(Clone, Copy)]
pub struct AccumId(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), accums: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, tag: u64) {
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, tag });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn end(&mut self, name: &'static str) {
        let id = self.open.pop().expect("end without an open span");
        assert_eq!(self.spans[id].name, name, "spans must close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, tag: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name, tag);
        let r = f(self);
        self.end(name);
        r
    }

    /// Registers an accumulator under the innermost open span.
    pub fn accum(&mut self, name: &'static str) -> AccumId {
        let parent = *self.open.last().expect("accumulators live under an open span");
        self.accums.push(Accum { name, parent, total_ns: 0, count: 0 });
        AccumId(self.accums.len() - 1)
    }

    /// Adds one measured chunk `[from, to)` to an accumulator.
    #[inline]
    pub fn add(&mut self, id: AccumId, from: Instant, to: Instant) {
        let a = &mut self.accums[id.0];
        a.total_ns += to.saturating_duration_since(from).as_nanos() as u64;
        a.count += 1;
    }

    /// Adds one pre-measured chunk of `ns` nanoseconds to an accumulator.
    pub fn add_ns(&mut self, id: AccumId, ns: u64) {
        let a = &mut self.accums[id.0];
        a.total_ns += ns;
        a.count += 1;
    }

    /// Self time in seconds per span or accumulator name, summed over
    /// every occurrence. Includes the root span(s).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        for a in &self.accums {
            covered[a.parent] += a.total_ns;
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        for a in &self.accums {
            *out.entry(a.name).or_insert(0.0) += a.total_ns as f64 * 1e-9;
        }
        out
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// `1 − Σ layer self time ÷ traced wall` over the top-level spans
    /// named in `roots`: a root's own self time is exactly the time no
    /// layer span or accumulator under it covers.
    pub fn unattributed_share(&self, roots: &[&str]) -> f64 {
        let selfs = self.self_seconds();
        let wall: f64 = roots.iter().map(|r| self.total_seconds(r)).sum();
        let own: f64 = roots.iter().map(|r| selfs.get(r).copied().unwrap_or(0.0)).sum();
        if wall > 0.0 {
            own / wall
        } else {
            0.0
        }
    }

    /// Writes every span and accumulator as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tag\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.tag
            );
        }
        for a in &self.accums {
            let _ = writeln!(
                s,
                "{{\"accum\":\"{}\",\"parent\":{},\"total_ns\":{},\"chunks\":{}}}",
                a.name, a.parent, a.total_ns, a.count
            );
        }
        std::fs::write(path, s)
    }
}

/// Process CPU time (user + system, all threads, including exited ones)
/// in seconds, from `/proc/self/stat` at the kernel's fixed 100 Hz
/// user-visible tick.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Current resident set (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `q`-quantile (nearest rank) of `v`, which is sorted in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Ordered `name → value` pairs printed as one JSON object.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> =
            self.0.iter().map(|(k, v)| format!("\"{k}\":{}", json_number(*v))).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite JSON number (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
