//! `wire-mixed`: an open loop over loopback TCP to a `NetServer` with
//! its default configuration, against one tenant (hardcore λ = 1 on
//! `cycle(10)`, ε = 0.001, `SampleExact`).
//!
//! 60% of requests repeat a 16-seed hot set, warmed during set-up:
//! these are idempotency-cache reads. 40% carry fresh seeds: engine
//! runs plus cache inserts and, once the cache is full, LRU evictions.
//! The offered rate alternates between `lo` and `hi` every half
//! second, so both rates see the same host conditions over the run,
//! and each latency metric is the median over the segments of its
//! rate: a host stall spoils a few segments, not the run. Load comes
//! from one connection driven by two threads: a sender that follows
//! the schedule whatever the replies do, and a receiver. Each request
//! is timed from the moment it was due, so a stalled sender charges
//! its lateness to every request behind it.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lds_engine::{ModelSpec, RunReport, Task, Topology};
use lds_graph::{generators, Graph};
use lds_net::codec::Wire;
use lds_net::frame::{self, DEFAULT_MAX_FRAME_LEN};
use lds_net::{Client, EngineSpec, NetServer, Op, Reply, Request, Response};
use lds_obs::MetricsSnapshot;

use crate::layers;
use crate::stats::{self, derive, histogram_delta, ms};
use crate::trace::Tracer;
use crate::{is_independent_set, timed_setup, Cfg, Outcome};

const LAMBDA: f64 = 1.0;
const EPS: f64 = 0.001;
const NODES: usize = 10;
const HOT_SET: u64 = 16;
const HIT_SHARE: f64 = 0.6;
/// Offered rates in requests per second.
const RATE_LO: f64 = 1000.0;
const RATE_HI: f64 = 8000.0;
/// Length of one constant-rate segment.
const SEGMENT_S: f64 = 0.5;
/// Latency limit of a good reply (`useful_*` at the high rate).
const LIMIT_MS: f64 = 10.0;
/// Percentile of the high-rate tail metrics.
const TAIL: f64 = 99.0;
/// Every this-many-th reply is kept for the in-process comparison and
/// the codec timing.
const KEEP_EVERY: usize = 97;
const TAG_MIX: u64 = 10;
const TAG_HOT: u64 = 11;
const TAG_PICK: u64 = 12;
const TAG_FRESH: u64 = 13;

fn graph() -> Graph {
    generators::cycle(NODES)
}

fn spec() -> EngineSpec {
    let mut spec = EngineSpec::new(
        ModelSpec::Hardcore { lambda: LAMBDA },
        Topology::Graph(graph()),
    );
    spec.epsilon = EPS;
    spec
}

/// A live server with the tenant registered, its hot set cached, and
/// the load connection accepted.
struct Rig {
    server: NetServer,
    control: Client,
    load: TcpStream,
    fingerprint: u64,
}

fn hot_seeds(cfg: &Cfg) -> Vec<u64> {
    (0..HOT_SET).map(|i| derive(cfg.seed, TAG_HOT, i)).collect()
}

fn start(cfg: &Cfg) -> Result<Rig, String> {
    let server = NetServer::with_defaults("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let addr = server.local_addr();
    let mut control = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let load = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    load.set_nodelay(true)
        .map_err(|e| format!("load connection: {e}"))?;
    // a wedged server fails the run instead of hanging it
    load.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("load connection: {e}"))?;
    let fingerprint = control
        .register(&spec())
        .map_err(|e| format!("registering the tenant: {e}"))?;
    for seed in hot_seeds(cfg) {
        control
            .run(fingerprint, Task::SampleExact, seed)
            .map_err(|e| format!("warming seed {seed}: {e}"))?;
    }
    // one round trip on the load connection: its session is live
    let ping = Request {
        id: 0,
        op: Op::Ping,
    };
    frame::write_frame(&mut &load, &ping.to_bytes(), DEFAULT_MAX_FRAME_LEN)
        .and_then(|()| frame::read_frame(&mut &load, DEFAULT_MAX_FRAME_LEN))
        .map_err(|e| format!("pinging over the load connection: {e}"))?;
    Ok(Rig {
        server,
        control,
        load,
        fingerprint,
    })
}

/// One planned request.
#[derive(Clone, Copy, Debug)]
struct Planned {
    seed: u64,
    hit: bool,
    /// The constant-rate segment it is sent in; even segments run at
    /// the low rate, odd ones at the high rate.
    segment: usize,
}

impl Planned {
    fn high_rate(&self) -> bool {
        self.segment % 2 == 1
    }
}

/// The requests of a run and when each is due, relative to the start:
/// `segments` alternating low- and high-rate segments.
fn plan(cfg: &Cfg, segments: usize) -> (Vec<Planned>, Vec<Duration>) {
    let hot = hot_seeds(cfg);
    let (mut planned, mut due) = (Vec::new(), Vec::new());
    for segment in 0..segments {
        let rate = if segment % 2 == 0 { RATE_LO } else { RATE_HI };
        let n = (rate * SEGMENT_S).round() as usize;
        for i in 0..n {
            let key = planned.len() as u64;
            let u = (derive(cfg.seed, TAG_MIX, key) >> 11) as f64 / (1u64 << 53) as f64;
            let hit = u < HIT_SHARE;
            let seed = if hit {
                hot[(derive(cfg.seed, TAG_PICK, key) % HOT_SET) as usize]
            } else {
                derive(cfg.seed, TAG_FRESH, key)
            };
            planned.push(Planned { seed, hit, segment });
            due.push(Duration::from_secs_f64(
                segment as f64 * SEGMENT_S + i as f64 / rate,
            ));
        }
    }
    (planned, due)
}

/// A send schedule: request `k` is due at `start + offsets[k]`,
/// whether or not earlier replies arrived.
#[derive(Clone, Copy, Debug)]
pub struct Schedule<'a> {
    pub start: Instant,
    pub offsets: &'a [Duration],
}

impl Schedule<'_> {
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.offsets[k]
    }

    /// Sends every request on schedule through `send` and returns how
    /// late each one went out. A send that stalls delays the ones behind
    /// it, which then go out back to back until the schedule is caught
    /// up; the schedule itself never shifts.
    pub fn drive<E>(
        &self,
        mut send: impl FnMut(usize, Instant) -> Result<(), E>,
    ) -> Result<Vec<Duration>, E> {
        let mut late = Vec::with_capacity(self.offsets.len());
        for k in 0..self.offsets.len() {
            let due = self.due(k);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late.push(sent.saturating_duration_since(due));
            send(k, sent)?;
        }
        Ok(late)
    }
}

/// One reply as the receiver saw it, checked and reduced on arrival so
/// the benchmark's own memory stays small.
struct Received {
    k: usize,
    at: Instant,
    answer: Answer,
}

enum Answer {
    Report {
        /// The report is for the planned seed and task and, when it
        /// succeeded, is an independent set.
        valid: bool,
        round_ratio: f64,
        /// Kept for every `KEEP_EVERY`-th request: the report and its
        /// raw payload.
        kept: Option<(Box<RunReport>, Vec<u8>)>,
    },
    Failed(String),
}

/// Runs the open loop over the load connection and reads every reply.
/// Returns the start instant, the lateness of each send, and the
/// replies in arrival order.
fn open_loop(
    stream: &TcpStream,
    fingerprint: u64,
    planned: &[Planned],
    offsets: &[Duration],
    tracer: Option<&Tracer>,
) -> Result<(Instant, Vec<Duration>, Vec<Received>), String> {
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        offsets,
    };
    let n = planned.len();
    // span ids of the per-request spans, reserved up front so the
    // sender can name them as parents
    let base = tracer.map_or(0, |t| t.reserve(n as u64));
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut buf = Vec::new();
            schedule.drive(|k, sent| {
                let req = Request {
                    id: k as u64 + 1,
                    op: Op::Run {
                        fingerprint,
                        task: Task::SampleExact,
                        seed: planned[k].seed,
                        deadline: None,
                    },
                };
                buf.clear();
                frame::write_frame(&mut buf, &req.to_bytes(), DEFAULT_MAX_FRAME_LEN)
                    .map_err(|e| format!("framing: {e}"))?;
                writer
                    .write_all(&buf)
                    .map_err(|e| format!("sending request {k}: {e}"))?;
                if let Some(t) = tracer {
                    let id = t.open();
                    t.record(
                        id,
                        base + k as u64,
                        "wire.send",
                        k as u64 + 1,
                        sent,
                        Instant::now(),
                    );
                }
                Ok::<(), String>(())
            })
        });
        let receiver = s.spawn(move || {
            let g = graph();
            let mut replies = Vec::with_capacity(n);
            for _ in 0..n {
                let payload = frame::read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN)
                    .map_err(|e| format!("receiving: {e}"))?;
                let at = Instant::now();
                let resp =
                    Response::from_bytes(&payload).map_err(|e| format!("decoding a reply: {e}"))?;
                let k = usize::try_from(resp.id.wrapping_sub(1))
                    .ok()
                    .filter(|&k| k < n)
                    .ok_or_else(|| format!("reply to unknown request id {}", resp.id))?;
                if let Some(t) = tracer {
                    t.record(
                        base + k as u64,
                        0,
                        "wire.request",
                        resp.id,
                        schedule.due(k),
                        at,
                    );
                }
                let answer = match resp.reply {
                    Reply::Report(report) => {
                        let p = planned[k];
                        let valid = report.seed == p.seed
                            && report.task == Task::SampleExact
                            && (!report.succeeded
                                || report.config().is_some_and(|c| is_independent_set(&g, c)));
                        Answer::Report {
                            valid,
                            round_ratio: layers::round_ratio(&report),
                            kept: (k % KEEP_EVERY == 0).then_some((report, payload)),
                        }
                    }
                    other => Answer::Failed(format!("{other:?}")),
                };
                replies.push(Received { k, at, answer });
            }
            Ok::<_, String>(replies)
        });
        let late = sender.join().map_err(|_| "sender panicked".to_string())??;
        let replies = receiver
            .join()
            .map_err(|_| "receiver panicked".to_string())??;
        Ok((schedule.start, late, replies))
    })
}

/// Latencies of one segment, by class, and when its last reply came.
#[derive(Default)]
struct SegmentStats {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    last_reply: Option<Instant>,
}

/// Records every reply's checks and sorts the latencies of good ones
/// into their segments. Returns the segments, every latency, and the
/// number of high-rate replies within the latency limit (a failed or
/// refused request misses the limit).
fn account(
    out: &mut Outcome,
    planned: &[Planned],
    due: impl Fn(usize) -> Instant,
    replies: Vec<Received>,
    kept: &mut Vec<(Planned, RunReport, Vec<u8>)>,
) -> (Vec<SegmentStats>, Vec<f64>, u64) {
    let segments = planned.last().map_or(0, |p| p.segment + 1);
    let mut per: Vec<SegmentStats> = (0..segments).map(|_| SegmentStats::default()).collect();
    let (mut all, mut good_high) = (Vec::with_capacity(replies.len()), 0);
    out.attempted += planned.len() as u64;
    out.fail(
        (planned.len() - replies.len()) as u64,
        "requests without a reply".into(),
    );
    for r in replies {
        let p = planned[r.k];
        let (valid, round_ratio, report) = match r.answer {
            Answer::Report {
                valid,
                round_ratio,
                kept,
            } => (valid, round_ratio, kept),
            Answer::Failed(what) => {
                out.fail(1, format!("request {}: {what}", r.k));
                continue;
            }
        };
        out.check(valid, || {
            format!("request {} (seed {}): wrong or invalid report", r.k, p.seed)
        });
        out.check(round_ratio <= 1.0, || {
            format!(
                "request {} (seed {}): rounds over the bound (ratio {round_ratio})",
                r.k, p.seed
            )
        });
        let latency = ms(r.at.saturating_duration_since(due(r.k)));
        good_high += u64::from(p.high_rate() && latency <= LIMIT_MS);
        all.push(latency);
        let seg = &mut per[p.segment];
        seg.last_reply = seg.last_reply.max(Some(r.at));
        if p.hit {
            seg.hit_ms.push(latency);
        } else {
            seg.miss_ms.push(latency);
        }
        if let Some((report, payload)) = report {
            kept.push((p, *report, payload));
        }
    }
    (per, all, good_high)
}

/// The median over the segments of one rate of a per-segment statistic.
fn over_segments(
    per: &[SegmentStats],
    high_rate: bool,
    stat: impl Fn(&SegmentStats) -> f64,
) -> f64 {
    let values: Vec<f64> = per
        .iter()
        .enumerate()
        .filter(|(i, _)| (i % 2 == 1) == high_rate)
        .map(|(_, s)| stat(s))
        .collect();
    stats::median(&values)
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (mut rig, setup_s) = timed_setup(|| start(cfg))?;
    let rss = stats::RssSampler::start();
    let mut out = Outcome::default();
    let tracer = cfg.trace.then(|| Arc::new(Tracer::new()));
    // whole low/high pairs
    let segments = 2 * ((cfg.seconds / (2.0 * SEGMENT_S)).floor() as usize).max(1);
    let (planned, offsets) = plan(cfg, segments);
    let high_requests = planned.iter().filter(|p| p.high_rate()).count();
    let mut kept = Vec::new();

    let window = Instant::now();
    rig.control
        .stats(rig.fingerprint, true)
        .map_err(|e| format!("resetting stats: {e}"))?;
    let before = rig
        .control
        .metrics()
        .map_err(|e| format!("scraping metrics: {e}"))?;
    let (start, late, replies) = open_loop(
        &rig.load,
        rig.fingerprint,
        &planned,
        &offsets,
        tracer.as_deref(),
    )?;
    let after = rig
        .control
        .metrics()
        .map_err(|e| format!("scraping metrics: {e}"))?;
    let served = rig
        .control
        .stats(rig.fingerprint, true)
        .map_err(|e| format!("reading stats: {e}"))?;
    let traced_for = window.elapsed();
    let due = |k: usize| start + offsets[k];
    let (per, all, good_high) = account(&mut out, &planned, due, replies, &mut kept);

    // served reports agree with in-process execution
    let reference = spec()
        .build()
        .map_err(|e| format!("building the reference engine: {e}"))?;
    for (p, served, _) in &kept {
        let local = reference
            .run_with_seed(Task::SampleExact, p.seed)
            .map_err(|e| format!("reference run: {e}"))?;
        out.check(served.semantic_eq(&local), || {
            format!("seed {}: served report differs from in-process", p.seed)
        });
    }
    rig.server.shutdown();

    // the high-rate segments last until their last reply came, so a
    // backlog they leave behind lengthens them
    let high_s: f64 = per
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(i, seg)| {
            let from = start + Duration::from_secs_f64(i as f64 * SEGMENT_S);
            let to = seg
                .last_reply
                .max(Some(from + Duration::from_secs_f64(SEGMENT_S)));
            to.map_or(SEGMENT_S, |to| (to - from).as_secs_f64())
        })
        .sum();
    out.set("useful_per_s", good_high as f64 / high_s);
    out.set("useful_share", good_high as f64 / high_requests as f64);
    out.set(
        "lat_a_p50_ms",
        over_segments(&per, false, |s| stats::median(&s.hit_ms)),
    );
    out.set(
        "lat_b_p50_ms",
        over_segments(&per, false, |s| stats::median(&s.miss_ms)),
    );

    if let Some(tracer) = tracer {
        out.set(
            "bench.lat_a_tail_ms",
            over_segments(&per, true, |s| stats::supported_tail(&s.hit_ms, TAIL)),
        );
        out.set(
            "bench.lat_b_tail_ms",
            over_segments(&per, true, |s| stats::supported_tail(&s.miss_ms, TAIL)),
        );
        let requests = planned.len() as u64;
        serve_and_net_layers(&mut out, &served, &before, &after, requests, &all);
        let misses: Vec<RunReport> = kept
            .iter()
            .filter(|(p, _, _)| !p.hit)
            .map(|(_, r, _)| r.clone())
            .collect();
        let engine_runs = planned.iter().filter(|p| !p.hit).count() as u64;
        layers::set_counter_layers(&mut out, &before, &after, requests, engine_runs);
        layers::set_report_layers(&mut out, &misses);
        codec_layers(&mut out, &kept)?;
        let late: Vec<f64> = late.iter().map(|&d| ms(d)).collect();
        out.set("bench.gen_late_p99_ms", stats::percentile(&late, 99.0));
        out.set(
            "bench.trace_overhead_pct",
            100.0 * tracer.overhead().as_secs_f64() / traced_for.as_secs_f64(),
        );
        tracer
            .write_jsonl(&crate::trace_path("wire-mixed", cfg.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    out.finish_common(setup_s, rss)?;
    Ok(out)
}

/// Serve and net metrics from the stats interval and the metric
/// scrapes before and after the open loop.
fn serve_and_net_layers(
    out: &mut Outcome,
    served: &lds_serve::ServerStats,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    requests: u64,
    client_ms: &[f64],
) {
    let us = |ns: u64| ns as f64 / 1e3;
    out.set("serve.cache_hit_rate", served.cache_hit_rate());
    out.set("serve.batch_size_mean", served.mean_batch_size());
    out.set("serve.peak_queue_depth", served.peak_queue_depth as f64);
    out.set("serve.rejected", served.rejected as f64);
    let serve = histogram_delta(after, before, "serve_request_latency_ns");
    out.set("serve.request_p50_us", us(serve.quantile(0.5)));
    out.set("serve.request_p99_us", us(serve.quantile(0.99)));
    let run = histogram_delta(after, before, "net_op_run_ns");
    out.set("net.op_run_p50_us", us(run.quantile(0.5)));
    out.set("net.op_run_p99_us", us(run.quantile(0.99)));
    let per = |name| stats::counter_delta(after, before, name) as f64 / requests as f64;
    out.set("net.bytes_in_per_req", per("net_bytes_in"));
    out.set("net.bytes_out_per_req", per("net_bytes_out"));
    out.set(
        "net.backpressure",
        stats::counter_delta(after, before, "net_backpressure") as f64,
    );
    // the hop: what the client saw beyond what the serve layer measured
    out.set(
        "net.hop_p50_us",
        stats::median(client_ms) * 1e3 - us(serve.quantile(0.5)),
    );
}

/// Encode and decode time of the workload's own replies.
fn codec_layers(out: &mut Outcome, kept: &[(Planned, RunReport, Vec<u8>)]) -> Result<(), String> {
    const REPS: usize = 200;
    let decoded: Vec<Response> = kept
        .iter()
        .map(|(_, _, payload)| Response::from_bytes(payload).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let ops = (REPS * kept.len().max(1)) as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        for (_, _, payload) in kept {
            std::hint::black_box(Response::from_bytes(std::hint::black_box(payload)).is_ok());
        }
    }
    out.set("net.codec_decode_us", t.elapsed().as_secs_f64() * 1e6 / ops);
    let t = Instant::now();
    for _ in 0..REPS {
        for resp in &decoded {
            std::hint::black_box(std::hint::black_box(resp).to_bytes());
        }
    }
    out.set("net.codec_encode_us", t.elapsed().as_secs_f64() * 1e6 / ops);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn every(interval: Duration, n: usize) -> Vec<Duration> {
        (0..n).map(|k| interval * k as u32).collect()
    }

    #[test]
    fn lateness_is_measured_from_the_due_time_and_a_stall_carries_over() {
        let offsets = every(Duration::from_millis(5), 8);
        let schedule = Schedule {
            start: Instant::now(),
            offsets: &offsets,
        };
        let mut sent_at = Vec::new();
        let late = schedule
            .drive(|k, sent| {
                sent_at.push(sent);
                if k == 2 {
                    // a 30 ms stall: requests 3.. are due before it ends
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok::<(), ()>(())
            })
            .unwrap();
        for k in 0..8 {
            assert_eq!(
                late[k],
                sent_at[k].saturating_duration_since(schedule.due(k)),
                "request {k}"
            );
        }
        // request 3 was due 5 ms after request 2 went out, but waited
        // for the whole 30 ms stall
        assert!(late[3] >= Duration::from_millis(24), "{:?}", late[3]);
        // the schedule never shifts: the sender catches up back to back
        // and request 7 (due at 35 ms) is no longer behind by the stall
        assert!(late[7] < late[3], "{late:?}");
        assert!(sent_at[7] >= schedule.due(2) + Duration::from_millis(30));
    }

    #[test]
    fn sends_follow_the_schedule_when_the_peer_never_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            conn.read_to_end(&mut buf).unwrap();
            buf.len()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let offsets = every(Duration::from_millis(1), 200);
        let schedule = Schedule {
            start: Instant::now(),
            offsets: &offsets,
        };
        let late = schedule.drive(|_, _| stream.write_all(&[0u8; 64])).unwrap();
        drop(stream);
        assert_eq!(sink.join().unwrap(), 200 * 64);
        // nothing waited for a reply: all 200 went out on schedule
        let late_ms: Vec<f64> = late.iter().map(|&d| ms(d)).collect();
        assert!(stats::median(&late_ms) < 5.0, "{late_ms:?}");
    }

    #[test]
    fn plans_alternate_rates_and_mix_hits_with_fresh_seeds() {
        let cfg = Cfg {
            seed: 5,
            seconds: 2.0,
            trace: false,
        };
        let (a, due) = plan(&cfg, 4);
        let (b, _) = plan(&cfg, 4);
        let per_pair = ((RATE_LO + RATE_HI) * SEGMENT_S) as usize;
        assert_eq!(a.len(), 2 * per_pair);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.seed == y.seed && x.hit == y.hit));
        // due times never go backwards and segments follow each other
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let first_high = a.iter().position(Planned::high_rate).unwrap();
        assert_eq!(first_high, (RATE_LO * SEGMENT_S) as usize);
        assert_eq!(due[first_high], Duration::from_secs_f64(SEGMENT_S));
        let hits = a.iter().filter(|p| p.hit).count() as f64 / a.len() as f64;
        assert!((hits - HIT_SHARE).abs() < 0.05, "{hits}");
        let hot = hot_seeds(&cfg);
        let fresh: std::collections::HashSet<u64> =
            a.iter().filter(|p| !p.hit).map(|p| p.seed).collect();
        assert_eq!(fresh.len(), a.iter().filter(|p| !p.hit).count());
        assert!(fresh.iter().all(|s| !hot.contains(s)));
    }
}
