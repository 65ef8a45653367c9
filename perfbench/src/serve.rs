//! `serve-mixed`: an in-process daemon under an open loop of cached
//! repeats (`hot`) and first-seen knob variants (`miss`).

use crate::corpus::{self, Expected, Program};
use crate::reference;
use crate::report::{self, Run, Tally};
use crate::spans::{self, Recorder, Span};
use crate::stats::{geomean, median, percentile, Rng};
use iolb_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Offered load of the timed phase, in requests per second.
pub const RATE_PER_S: f64 = 1000.0;
/// A request is on time when answered ok and correct within its class's
/// limit, counted from when it was due.
pub const HOT_LIMIT_MS: f64 = 25.0;
pub const MISS_LIMIT_MS: f64 = 2000.0;
/// Server set-ups per run (start + priming pass); `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Cache sizes (words) of the miss variants of a light program.
pub const MISS_CACHE_SIZES: [i128; 4] = [1024, 2048, 4096, 8192];
/// The single miss variant of a stencil-class kernel.
pub const STENCIL_MISS_SIZE: i128 = 4096;
/// The stencil-class programs (preflight's large cost class).
const STENCILS: [&str; 4] = [
    "kernel:heat-3d",
    "kernel:jacobi-2d",
    "kernel:seidel-2d",
    "iolb:jacobi-2d",
];
/// Left out of the miss set: one serial analysis of it takes seconds, so a
/// single miss would dominate the phase.
const NO_MISS: &str = "iolb:jacobi-2d";
/// Lead time between spawning the senders and the first due request.
const LEAD: Duration = Duration::from_millis(20);

/// Every base program: the 30 kernels, then the 6 sources.
pub fn base_programs() -> Vec<Program> {
    let mut programs = corpus::kernels();
    programs.extend(corpus::iolb_programs());
    programs
}

/// The pinned miss variants: four cache sizes per light program and one
/// per stencil-class kernel. Stencil misses are ~2% of the misses, so
/// neither the miss p50 nor the p90 sits on the light/stencil cliff.
pub fn miss_variants() -> Vec<(Program, i128)> {
    let mut out = Vec::new();
    for program in base_programs() {
        let key = program.key();
        if key == NO_MISS {
            continue;
        }
        if STENCILS.contains(&key.as_str()) {
            out.push((program, STENCIL_MISS_SIZE));
        } else {
            out.extend(MISS_CACHE_SIZES.iter().map(|&s| (program, s)));
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Hot,
    Miss,
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    pub due_ns: u64,
    pub class: Class,
    /// Index into the base programs.
    pub program: usize,
    /// The knob that makes a miss first-seen.
    pub cache_size: Option<i128>,
}

/// The timed phase's request list: evenly spaced at [`RATE_PER_S`], every
/// miss variant exactly once, the rest repeats that cycle through the base
/// programs. The seed only reorders: class shares and per-program shares
/// are the same for every seed.
pub fn schedule(
    seed: u64,
    seconds: f64,
    programs: usize,
    variants: &[(usize, i128)],
) -> Vec<Planned> {
    let n = ((RATE_PER_S * seconds).round() as usize).max(2 * variants.len());
    let hots = n - variants.len();
    let mut hot_programs: Vec<usize> = (0..hots).map(|i| i % programs).collect();
    Rng::stream(seed, 101).shuffle(&mut hot_programs);
    let mut misses = variants.to_vec();
    Rng::stream(seed, 102).shuffle(&mut misses);
    let mut classes: Vec<Class> = vec![Class::Miss; misses.len()];
    classes.resize(n, Class::Hot);
    Rng::stream(seed, 103).shuffle(&mut classes);
    let (mut hot_it, mut miss_it) = (hot_programs.into_iter(), misses.into_iter());
    let spacing_ns = 1e9 / RATE_PER_S;
    classes
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let (program, cache_size) = match class {
                Class::Hot => (hot_it.next().expect("one program per hot slot"), None),
                Class::Miss => {
                    let (p, s) = miss_it.next().expect("one variant per miss slot");
                    (p, Some(s))
                }
            };
            Planned {
                due_ns: (i as f64 * spacing_ns) as u64,
                class,
                program,
                cache_size,
            }
        })
        .collect()
}

/// The request line body (without `id`) of each base program.
fn request_body(program: &Program) -> String {
    match program {
        Program::Kernel(name) => format!("\"kernel\":\"{name}\""),
        Program::Iolb(_, src) => format!("\"source\":{}", iolb_server::json::escape(src)),
    }
}

/// The reply fields the benchmark checks and times, cut out of the compact
/// response line without a full parse (the sender thread stays cheap).
struct Reply {
    ok: bool,
    cached: bool,
    q_low: Option<String>,
    queue_ms: f64,
    service_ms: f64,
    warm: bool,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    Some(&line[at..])
}

fn number(line: &str, key: &str) -> f64 {
    field(line, key)
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap_or(f64::NAN)
        })
        .unwrap_or(f64::NAN)
}

fn parse_reply(line: &str) -> Reply {
    Reply {
        ok: field(line, "status").is_some_and(|s| s.starts_with("\"ok\"")),
        cached: field(line, "cached").is_some_and(|s| s.starts_with("true")),
        q_low: field(line, "q_low")
            .and_then(|s| s.strip_prefix('"'))
            .and_then(|s| s.find('"').map(|end| s[..end].to_string())),
        queue_ms: number(line, "queue_ms"),
        service_ms: number(line, "service_ms"),
        warm: field(line, "session_warm").is_some_and(|s| s.starts_with("true")),
    }
}

/// A stats counter, found by the path of keys leading to it.
fn stat(stats: &str, path: &[&str]) -> u64 {
    let mut rest = stats;
    for key in path {
        match field(rest, key) {
            Some(r) => rest = r,
            None => return 0,
        }
    }
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0)
}

/// One answered request of the timed phase.
struct Answer {
    class: Class,
    program: usize,
    /// From due time to reply.
    latency_ms: f64,
    /// From send to reply.
    client_ms: f64,
    lateness_ms: f64,
    queue_ms: f64,
    service_ms: f64,
    warm: bool,
    correct: bool,
}

struct Ctx<'a> {
    programs: &'a [Program],
    bodies: &'a [String],
    expected: &'a Expected,
}

impl Ctx<'_> {
    fn line(&self, id: usize, program: usize, cache_size: Option<i128>) -> String {
        match cache_size {
            None => format!("{{\"id\":{id},{}}}", self.bodies[program]),
            Some(s) => format!(
                "{{\"id\":{id},{},\"cache_size\":{s}}}",
                self.bodies[program]
            ),
        }
    }

    /// Ok, the expected `q_low`, and served from the cache exactly when the
    /// schedule says the request is a repeat.
    fn correct(&self, reply: &Reply, program: usize, cache_size: Option<i128>, hot: bool) -> bool {
        let want = self.expected.q_low(&self.programs[program], cache_size);
        reply.ok && reply.cached == hot && want.is_some() && reply.q_low.as_deref() == want
    }
}

fn senders() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4)
}

/// A priming pass: a fresh daemon, then every base program sent once, one
/// at a time. One request in flight means one pooled session serves them
/// all, so the session's cache contents (and the process's memory) do not
/// depend on thread timing.
struct Primed {
    server: Server,
    /// The pass window, in nanoseconds since the run's origin.
    start_ns: u64,
    end_ns: u64,
    /// Each base program's cold latency, indexed like the base programs.
    latency_ms: Vec<f64>,
    spans: Vec<Span>,
}

impl Primed {
    fn pass_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn prime(ctx: &Ctx, origin: Instant, tally: &mut Tally, traced: bool) -> Primed {
    let server = Server::start(ServerConfig::default());
    let mut rec = Recorder::new(origin);
    let mut latency_ms = Vec::with_capacity(ctx.programs.len());
    let start_ns = origin.elapsed().as_nanos() as u64;
    for p in 0..ctx.programs.len() {
        let line = ctx.line(p, p, None);
        let sent = Instant::now();
        let reply = if traced {
            rec.span("server.handle_line", p as u64, || server.handle_line(&line))
        } else {
            server.handle_line(&line)
        };
        latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        tally.check(ctx.correct(&parse_reply(&reply), p, None, false), || {
            format!("priming {}: wrong or failed reply", ctx.programs[p].key())
        });
    }
    Primed {
        server,
        start_ns,
        end_ns: origin.elapsed().as_nanos() as u64,
        latency_ms,
        spans: rec.spans().to_vec(),
    }
}

/// Sends the planned requests open-loop and collects the answers.
fn timed_phase(
    ctx: &Ctx,
    server: &Server,
    plan: &[Planned],
    origin: Instant,
    traced: bool,
) -> (Vec<Answer>, f64, Vec<Span>) {
    let threads = senders();
    // With two or more senders, one carries every miss so that a miss
    // blocking its sender never delays a hot request's send.
    let assign = |i: usize, p: &Planned| -> usize {
        match (threads, p.class) {
            (1, _) => 0,
            (_, Class::Miss) => 0,
            (_, Class::Hot) => 1 + i % (threads - 1),
        }
    };
    let start = Instant::now() + LEAD;
    let per_thread: Vec<(Vec<Answer>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<(usize, &Planned)> = plan
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| assign(*i, p) == t)
                    .collect();
                s.spawn(move || {
                    let mut rec = Recorder::new(origin);
                    let mut out = Vec::with_capacity(mine.len());
                    for (id, p) in mine {
                        let due = start + Duration::from_nanos(p.due_ns);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let line = ctx.line(id, p.program, p.cache_size);
                        let sent = Instant::now();
                        let response = if traced {
                            rec.span("server.handle_line", id as u64, || {
                                server.handle_line(&line)
                            })
                        } else {
                            server.handle_line(&line)
                        };
                        let done = Instant::now();
                        let reply = parse_reply(&response);
                        let hot = p.class == Class::Hot;
                        out.push(Answer {
                            class: p.class,
                            program: p.program,
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            client_ms: (done - sent).as_secs_f64() * 1e3,
                            lateness_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            queue_ms: reply.queue_ms,
                            service_ms: reply.service_ms,
                            warm: reply.warm,
                            correct: ctx.correct(&reply, p.program, p.cache_size, hot),
                        });
                    }
                    (out, rec.spans().to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let phase_s = (Instant::now() - start).as_secs_f64();
    let mut answers = Vec::new();
    let mut spans = Vec::new();
    for (a, s) in per_thread {
        answers.extend(a);
        spans::append(&mut spans, &s);
    }
    (answers, phase_s, spans)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("n/a (fewer than 10 samples beyond)".to_string(), |v| {
        format!("{v:.3}")
    })
}

/// Everything both the untraced and the traced run share: set-ups, the
/// timed phase, the correctness checks and the stats cross-check.
struct Measured {
    setup_s: f64,
    pass_s: f64,
    /// Median priming pass over the mean of its reference brackets.
    pass_rel: f64,
    /// Per program: its cold priming latencies, raw (ms) and over the
    /// priming pass's reference brackets.
    priming_ms: Vec<Vec<f64>>,
    priming_rel: Vec<Vec<f64>>,
    /// Peak RSS once the first daemon is primed. Later set-ups start new
    /// worker threads whose allocator arenas vary run to run, and the timed
    /// phase's misses grow whichever pooled session serves them, so the
    /// whole-run peak is printed but not gated.
    primed_peak_rss_mb: f64,
    answers: Vec<Answer>,
    phase_s: f64,
    before: String,
    after: String,
    spans: Vec<Span>,
    /// The traced priming pass: wall time, and the part of it during which
    /// no request was in flight.
    traced_pass: Option<(f64, f64)>,
}

fn measure(seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> Measured {
    let expected = Expected::load();
    let programs = base_programs();
    let bodies: Vec<String> = programs.iter().map(request_body).collect();
    let ctx = Ctx {
        programs: &programs,
        bodies: &bodies,
        expected: &expected,
    };
    let index: BTreeMap<String, usize> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.key(), i))
        .collect();
    let variants: Vec<(usize, i128)> = miss_variants()
        .into_iter()
        .map(|(p, s)| (index[&p.key()], s))
        .collect();

    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut pass_rel = Vec::new();
    let mut priming_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut priming_rel: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut before_s = reference::time_s();
    let mut primed: Option<Primed> = None;
    let mut primed_peak_rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        if let Some(old) = primed.take() {
            old.server.shutdown();
        }
        let start = Instant::now();
        let p = prime(&ctx, origin, tally, false);
        setups.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            primed_peak_rss_mb = report::peak_rss_mb();
        }
        let after_s = reference::time_s();
        let ref_s = (before_s + after_s) / 2.0;
        before_s = after_s;
        passes.push(p.pass_s());
        pass_rel.push(p.pass_s() / ref_s);
        for (i, &ms) in p.latency_ms.iter().enumerate() {
            priming_ms[i].push(ms);
            priming_rel[i].push(ms / 1e3 / ref_s);
        }
        primed = Some(p);
    }
    let mut primed = primed.expect("set up at least once");
    let mut traced_pass = None;
    if traced {
        primed.server.shutdown();
        primed = prime(&ctx, origin, tally, true);
        let intervals = primed
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let idle_ns = (primed.end_ns - primed.start_ns)
            - spans::covered_ns(intervals, primed.start_ns, primed.end_ns);
        traced_pass = Some((primed.pass_s(), idle_ns as f64 / 1e6));
    }
    let server = &primed.server;
    let mut spans = primed.spans.clone();

    let plan = schedule(seed, seconds, programs.len(), &variants);
    let before = server.handle_line("{\"op\":\"stats\"}");
    let (answers, phase_s, phase_spans) = timed_phase(&ctx, server, &plan, origin, traced);
    let after = server.handle_line("{\"op\":\"stats\"}");
    server.shutdown();
    spans::append(&mut spans, &phase_spans);

    for a in &answers {
        tally.check(a.correct, || {
            format!(
                "{:?} request for {}: wrong, failed or misclassified reply",
                a.class,
                programs[a.program].key()
            )
        });
    }
    // The schedule's classes must match the daemon's own cache accounting.
    let delta = |path: &[&str]| stat(&after, path) - stat(&before, path);
    let hits = delta(&["result_cache", "hits"]) + delta(&["result_cache", "inflight_coalesced"]);
    let misses = delta(&["result_cache", "misses"]);
    let hot_sent = plan.iter().filter(|p| p.class == Class::Hot).count() as u64;
    let miss_sent = plan.len() as u64 - hot_sent;
    println!(
        "classes: schedule {hot_sent} hot / {miss_sent} miss; daemon result_cache {hits} hits+coalesced / {misses} misses"
    );
    tally.check(hits == hot_sent && misses == miss_sent, || {
        "schedule classes disagree with the daemon's result_cache counters".to_string()
    });

    Measured {
        setup_s: median(&setups).expect("set up"),
        pass_s: median(&passes).expect("primed"),
        pass_rel: median(&pass_rel).expect("primed"),
        priming_ms,
        priming_rel,
        primed_peak_rss_mb,
        answers,
        phase_s,
        before,
        after,
        spans,
        traced_pass,
    }
}

fn class_values(answers: &[Answer], class: Class, f: impl Fn(&Answer) -> f64) -> Vec<f64> {
    answers.iter().filter(|a| a.class == class).map(f).collect()
}

/// The untraced run: end-to-end metrics plus the daemon's latency rows.
pub fn run(seed: u64, seconds: f64) -> Run {
    let mut tally = Tally::default();
    let m = measure(seed, seconds, false, &mut tally);
    let programs = base_programs();
    let a = &m.answers;

    let hot = class_values(a, Class::Hot, |a| a.latency_ms);
    let miss = class_values(a, Class::Miss, |a| a.latency_ms);
    println!(
        "open loop: {RATE_PER_S} req/s offered for {:.3} s from {} sender threads; {} workers",
        m.phase_s,
        senders(),
        ServerConfig::default().workers
    );
    println!(
        "hot_p50_ms  {} ms ({} hot samples)",
        fmt_opt(percentile(&hot, 50.0)),
        hot.len()
    );
    println!("hot_p99_ms  {} ms", fmt_opt(percentile(&hot, 99.0)));
    println!(
        "miss_p50_ms {} ms ({} miss samples)",
        fmt_opt(percentile(&miss, 50.0)),
        miss.len()
    );
    println!("miss_p90_ms {} ms", fmt_opt(percentile(&miss, 90.0)));
    let on_time = a
        .iter()
        .filter(|a| {
            let limit = if a.class == Class::Hot {
                HOT_LIMIT_MS
            } else {
                MISS_LIMIT_MS
            };
            a.correct && a.latency_ms <= limit
        })
        .count();
    println!(
        "on_time_ratio {:.6} ({on_time} on time / {} sent; limits hot {HOT_LIMIT_MS} ms, miss {MISS_LIMIT_MS} ms)",
        on_time as f64 / a.len().max(1) as f64,
        a.len()
    );
    tally.print_failed_ratio();
    let lateness: Vec<f64> = a.iter().map(|a| a.lateness_ms).collect();
    println!(
        "generator lateness: p50 {} ms, p99 {} ms, max {:.3} ms",
        fmt_opt(percentile(&lateness, 50.0)),
        fmt_opt(percentile(&lateness, 99.0)),
        lateness.iter().copied().fold(0.0, f64::max)
    );
    let busy_ms: f64 = a
        .iter()
        .map(|a| a.service_ms)
        .filter(|v| v.is_finite())
        .sum();
    let workers = stat(&m.after, &["workers"]).max(1);
    println!(
        "daemon busy share: {:.3} (service time {:.1} ms / {workers} workers x {:.1} ms)",
        busy_ms / (workers as f64 * m.phase_s * 1e3),
        busy_ms,
        m.phase_s * 1e3
    );

    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    for answer in a {
        per_program[answer.program].push(answer.latency_ms);
    }
    let cold_ms: Vec<f64> = m
        .priming_ms
        .iter()
        .map(|v| median(v).expect("primed"))
        .collect();
    for ((p, v), cold) in programs.iter().zip(&per_program).zip(&cold_ms) {
        println!(
            "program {:<22} cold_median_ms {cold:.3} timed_phase_median_ms {}",
            p.key(),
            fmt_opt(median(v))
        );
    }
    let cold_rel: Vec<f64> = m
        .priming_rel
        .iter()
        .map(|v| median(v).expect("primed"))
        .collect();
    report::print_raw(m.pass_s, geomean(&cold_ms).expect("positive times"));
    println!(
        "peak_rss_mb at the end of the run {:.3} MB (not gated; the gated figure is the peak \
         once the first daemon is primed)",
        report::peak_rss_mb()
    );
    tally.into_run(report::end_to_end(
        m.setup_s,
        m.pass_rel,
        geomean(&cold_rel).expect("positive times"),
        m.primed_peak_rss_mb,
    ))
}

/// The traced run: spans around every `Server::handle_line` call, the
/// daemon's own timings from each reply, and its stats counters.
pub fn run_traced(seed: u64, seconds: f64, spans_out: &std::path::Path) -> Run {
    let mut tally = Tally::default();
    let m = measure(seed, seconds, true, &mut tally);
    crate::batch::write_spans(spans_out, &m.spans);
    let a = &m.answers;
    let (traced_pass_s, uncovered_ms) = m.traced_pass.expect("traced priming pass");
    println!(
        "tracing overhead: {:.3} ms per priming pass (traced {traced_pass_s:.4} s minus untraced pass_s {:.4} s)",
        (traced_pass_s - m.pass_s) * 1e3,
        m.pass_s
    );
    println!("traced priming pass: {uncovered_ms:.3} ms with no handle_line span in flight");

    let admission: Vec<f64> = a
        .iter()
        .map(|a| a.client_ms - a.queue_ms - a.service_ms)
        .collect();
    let queue: Vec<f64> = a.iter().map(|a| a.queue_ms).collect();
    let delta = |path: &[&str]| stat(&m.after, path) - stat(&m.before, path);
    let hits = delta(&["result_cache", "hits"]) + delta(&["result_cache", "inflight_coalesced"]);
    let misses: Vec<&Answer> = a.iter().filter(|a| a.class == Class::Miss).collect();
    let warm = misses.iter().filter(|a| a.warm).count();
    println!(
        "core.result_cache.hit_ratio = {hits} hits+coalesced / {} timed-phase requests",
        a.len()
    );
    println!(
        "core.pool.warm_ratio = {warm} warm sessions / {} misses",
        misses.len()
    );
    println!("server lane queue peaks count from server start (priming included)");
    let ratio = |n: u64, d: usize| n as f64 / d.max(1) as f64;
    let values = BTreeMap::from([
        ("server.admission_ms", median(&admission).unwrap_or(0.0)),
        (
            "server.queue_ms.p50",
            percentile(&queue, 50.0).unwrap_or(0.0),
        ),
        (
            "server.queue_ms.p99",
            percentile(&queue, 99.0).unwrap_or(0.0),
        ),
        (
            "server.service_ms.hot",
            median(&class_values(a, Class::Hot, |a| a.service_ms)).unwrap_or(0.0),
        ),
        (
            "server.service_ms.miss",
            median(&class_values(a, Class::Miss, |a| a.service_ms)).unwrap_or(0.0),
        ),
        (
            "server.lane_small.queue_peak",
            stat(&m.after, &["lanes", "small", "queued_peak"]) as f64,
        ),
        (
            "server.lane_large.queue_peak",
            stat(&m.after, &["lanes", "large", "queued_peak"]) as f64,
        ),
        ("server.overloaded", delta(&["rejected_overloaded"]) as f64),
        ("server.timeouts", delta(&["timeouts"]) as f64),
        ("core.result_cache.hit_ratio", ratio(hits, a.len())),
        ("core.pool.warm_ratio", ratio(warm as u64, misses.len())),
        ("trace.overhead_ms", (traced_pass_s - m.pass_s) * 1e3),
        ("trace.uncovered_ms", uncovered_ms),
    ]);
    tally.into_run(report::per_layer(
        &values,
        "runs inside Server::handle_line, out of reach of the benchmark's spans",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<Planned> {
        let variants: Vec<(usize, i128)> = (0..12).map(|i| (i % 6, 1000 + i as i128)).collect();
        schedule(seed, 0.5, 6, &variants)
    }

    fn shares(plan: &[Planned]) -> BTreeMap<(usize, Option<i128>), usize> {
        let mut out = BTreeMap::new();
        for p in plan {
            *out.entry((p.program, p.cache_size)).or_insert(0) += 1;
        }
        out
    }

    #[test]
    fn same_seed_gives_an_identical_request_list() {
        assert_eq!(plan(42), plan(42));
    }

    #[test]
    fn another_seed_reorders_with_the_same_shares() {
        let (a, b) = (plan(42), plan(43));
        assert_ne!(a, b);
        assert_eq!(a.len(), 500);
        let misses = |p: &[Planned]| p.iter().filter(|r| r.class == Class::Miss).count();
        assert_eq!(misses(&a), 12);
        assert_eq!(misses(&b), 12);
        assert_eq!(shares(&a), shares(&b));
        // Due times depend on the position only.
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_ns == y.due_ns));
        // Misses carry their knob; hots never do.
        assert!(a
            .iter()
            .all(|r| (r.class == Class::Miss) == r.cache_size.is_some()));
    }

    #[test]
    fn miss_set_keeps_stencils_off_the_percentile_cliff() {
        let variants = miss_variants();
        let stencil = variants
            .iter()
            .filter(|(p, _)| STENCILS.contains(&p.key().as_str()))
            .count();
        let n = variants.len();
        // p50 and p90 (nearest rank) both sit among the light misses, at
        // least ten ranks below the first stencil-class miss.
        let p90_rank = (0.9 * n as f64).ceil() as usize;
        assert!(
            n - stencil >= p90_rank + 10,
            "{n} misses, {stencil} stencil-class"
        );
        assert!(n - p90_rank >= crate::stats::MIN_BEYOND);
    }

    #[test]
    fn reply_fields_are_cut_out_of_a_compact_line() {
        let line = r#"{"id":3,"status":"ok","cached":true,"report":{"schema_version":1,"kernel":"gemm","q_low":"N^2 + 2*N"},"server":{"queue_ms":0.125,"service_ms":1.5,"analysis_ms":0.000,"session_warm":false,"pool_sessions":1,"cost_class":"small"}}"#;
        let r = parse_reply(line);
        assert!(r.ok && r.cached && !r.warm);
        assert_eq!(r.q_low.as_deref(), Some("N^2 + 2*N"));
        assert_eq!((r.queue_ms, r.service_ms), (0.125, 1.5));
        let err = parse_reply(r#"{"id":1,"status":"error","error":{"code":"timeout"}}"#);
        assert!(!err.ok && err.q_low.is_none());
        let stats = r#"{"lanes":{"small":{"queued_peak":2},"large":{"queued_peak":1}},"result_cache":{"hits":7,"misses":3}}"#;
        assert_eq!(stat(stats, &["lanes", "large", "queued_peak"]), 1);
        assert_eq!(stat(stats, &["result_cache", "misses"]), 3);
    }
}
