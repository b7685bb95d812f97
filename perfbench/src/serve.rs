//! `serve-pipelined`: an in-process `dp_serve::Server` on loopback TCP with
//! `jobs` = 2, driven by two client connections that each keep a fixed
//! window of tagged requests in flight (a closed loop, the shape of a
//! dp-shard session).
//!
//! The seeded request mix:
//! - `execute` and `transform` requests over a small kernel set that set-up
//!   warms, so they are compiled-cache hits;
//! - `sweep-cell` requests served from the `disk_cache` that set-up fills;
//! - a small fixed share of `execute` requests with never-seen sources,
//!   which miss the cache and compile.
//!
//! The work per request is tiny, so the socket, the NDJSON protocol,
//! admission, per-request threads, the Interactive pool class and the
//! cache read paths dominate.
//!
//! Correctness is the serve determinism contract: every response is
//! `ok:true` and echoes its id, and with the id removed its bytes equal the
//! answer to the same request sent id-less on a fresh connection. Set-up
//! takes those answers for the warm requests; the never-seen ones are
//! re-sent id-less after the run, since sending them earlier would warm
//! them.

use crate::report::{Measured, Metric};
use crate::spans::Tracer;
use crate::{splitmix64, Mode, JOBS};
use dp_bench::fig9_variants;
use dp_bench::tuned_for;
use dp_obs::metrics::Snapshot;
use dp_serve::proto::{bare_request, source_request, sweep_cell_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use dp_workloads::benchmarks::{all_benchmarks, Variant};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client connections, each on its own load thread.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
pub const WINDOW: usize = 16;
/// Completed requests per batch; `wall_s` is the median batch time.
const BATCH: usize = 1000;
/// Never-seen sources, per thousand requests.
const MISS_PER_MILLE: u64 = 20;
/// Warm `execute` kernels; `transform` requests cover every benchmark.
const EXECUTE_KERNELS: u64 = 8;
/// Dataset scale of the `sweep-cell` requests: set-up runs each once.
const SWEEP_SCALE: f64 = 0.001;
/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Benchmark cells cheap enough to execute in set-up.
const SWEEP_CELLS: [(&str, &str); 4] = [
    ("BFS", "KRON"),
    ("BT", "T0032-C16"),
    ("SP", "5-SAT"),
    ("SSSP", "KRON"),
];

/// A small kernel with one child launch. Distinct nonces are distinct
/// sources.
fn execute_body(nonce: u64) -> String {
    let source = format!(
        "__global__ void child(int* d, int n) {{ \
           int i = threadIdx.x; if (i < n) {{ d[i] = i + {nonce}; }} }}\n\
         __global__ void parent(int* d, int n) {{ \
           if (threadIdx.x == 0) {{ child<<<1, 32>>>(d, n); }} }}"
    );
    let source = dp_sweep::json::Json::Str(source).to_string();
    format!(
        r#"{{"op":"execute","source":{source},"kernel":"parent","grid":1,"block":4,"buffers":[{{"name":"d","words":32}}],"args":["@d",8],"read":[{{"buffer":"d","len":8}}]}}"#
    )
}

/// A warm request and the answer set-up got for it.
struct Warm {
    body: String,
    answer: String,
}

/// What one load connection sent and saw.
#[derive(Default)]
struct ConnResult {
    latencies_us: Vec<f64>,
    completions: Vec<Instant>,
    first_send: Option<Instant>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Never-seen requests and their id-stripped answers, for the re-check.
    misses: Vec<(String, String)>,
}

pub struct ServePipelined {
    seed: u64,
    warm: Vec<Warm>,
    endpoint: Endpoint,
    server: Option<JoinHandle<std::io::Result<()>>>,
    disk: PathBuf,
    misses: Vec<(String, String)>,
    /// Measurement windows run so far; never-seen nonces include it, so
    /// they stay unique across windows.
    windows: u64,
}

impl ConnResult {
    /// Counts `n` requests as failed, keeping the first few reasons.
    fn lose(&mut self, reason: String, n: u64) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(reason);
        }
    }
}

/// Removes the `"id":N` member (and one adjoining comma) from a response.
fn strip_id(line: &str, id: u64) -> Option<String> {
    let member = format!("\"id\":{id}");
    let at = line.find(&member)?;
    let end = at + member.len();
    let (from, to) = if line[..at].ends_with(',') {
        (at - 1, end)
    } else if line[end..].starts_with(',') {
        (at, end + 1)
    } else {
        (at, end)
    };
    Some(format!("{}{}", &line[..from], &line[to..]))
}

/// The `id` member of a response.
fn response_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn shutdown(endpoint: &Endpoint, server: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(endpoint).expect("connect to shut the server down");
    client
        .request(&bare_request("shutdown"))
        .expect("server drains and shuts down");
    server
        .join()
        .expect("server thread panicked")
        .expect("server exits cleanly");
}

/// The warm request bodies of a seed: kernels with seeded nonces, every
/// benchmark's CDP source under its tuned CDP+T+C+A configuration, and the
/// No-CDP and CDP+T+C+A cells of `SWEEP_CELLS` on seeded datasets. The
/// kinds of work are the same for every seed.
fn warm_bodies(seed: u64) -> Vec<String> {
    let mut bodies: Vec<String> = (0..EXECUTE_KERNELS)
        .map(|i| execute_body(1 + (seed % 1_000_000) * 16 + i))
        .collect();
    for bench in all_benchmarks() {
        let (_, variant) = headline(bench.name(), "CDP+T+C+A");
        let Variant::Cdp(config) = variant else {
            unreachable!("CDP+T+C+A is a CDP variant")
        };
        bodies.push(source_request("transform", bench.cdp_source(), &config).to_string());
    }
    for (bench, dataset) in SWEEP_CELLS {
        for label in ["No CDP", "CDP+T+C+A"] {
            let (label, variant) = headline(bench, label);
            bodies.push(
                sweep_cell_request(bench, dataset, SWEEP_SCALE, seed, label, &variant).to_string(),
            );
        }
    }
    bodies
}

/// The Fig. 9 variant of `bench` labelled `label`.
fn headline(bench: &str, label: &str) -> (&'static str, Variant) {
    fig9_variants(tuned_for(bench))
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("Fig. 9 has a `{label}` variant"))
}

/// Binds a server with a fresh disk cache and takes the warm answers
/// id-less on a fresh connection (which compiles the kernels and fills the
/// disk cache).
fn start(seed: u64, disk: &Path) -> (Endpoint, JoinHandle<std::io::Result<()>>, Vec<Warm>) {
    let _ = std::fs::remove_dir_all(disk);
    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &ServeOptions {
            jobs: JOBS,
            cache_capacity: 1024,
            disk_cache: Some(disk.to_path_buf()),
            ..ServeOptions::default()
        },
    )
    .expect("bind the benchmark server on loopback");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&endpoint).expect("connect the set-up client");
    let warm = warm_bodies(seed)
        .into_iter()
        .map(|body| {
            let answer = client
                .roundtrip_line(&body)
                .expect("set-up round trip")
                .expect("set-up response");
            let answer = answer.trim_end().to_string();
            assert!(
                answer.contains("\"ok\":true"),
                "set-up request failed: {answer}"
            );
            Warm { body, answer }
        })
        .collect();
    (endpoint, handle, warm)
}

impl ServePipelined {
    /// Starts the server and warms it `SETUP_REPS` times; the last server
    /// stays up for the run.
    pub fn setup(seed: u64, work: &Path, m: &mut Measured) -> ServePipelined {
        let disk = work.join("disk-cache");
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some((endpoint, handle, _)) = last.take() {
                shutdown(&endpoint, handle);
            }
            let started = Instant::now();
            last = Some(start(seed, &disk));
            m.setup_s.push(started.elapsed().as_secs_f64());
        }
        let (endpoint, server, warm) = last.expect("set-up ran");
        ServePipelined {
            seed,
            warm,
            endpoint,
            server: Some(server),
            disk,
            misses: Vec::new(),
            windows: 0,
        }
    }

    /// One load connection's closed loop until the deadline.
    fn load(&self, conn: usize, mode: &Mode, trace: Option<(&Tracer, u64)>) -> ConnResult {
        let mut out = ConnResult::default();
        let mut client = match Client::connect(&self.endpoint) {
            Ok(c) => c,
            Err(e) => {
                out.attempted = 1;
                out.lose(format!("connection {conn}: connect: {e}"), 1);
                return out;
            }
        };
        let stream = (self.windows * CONNECTIONS as u64 + conn as u64 + 1)
            .wrapping_mul(0xa076_1d64_78bd_642f);
        let mut state = self.seed ^ stream;
        let miss_base =
            1_000_000_000 + (self.windows * CONNECTIONS as u64 + conn as u64) * 10_000_000;
        let mut misses = 0u64;
        let mut next_id = 1u64;
        // id -> (sent at, warm index or the never-seen body)
        let mut inflight: HashMap<u64, (Instant, Result<usize, String>)> = HashMap::new();
        let mut send = |client: &mut Client, inflight: &mut HashMap<_, _>, out: &mut ConnResult| {
            let pick = if splitmix64(&mut state) % 1000 < MISS_PER_MILLE {
                misses += 1;
                Err(execute_body(miss_base + misses))
            } else {
                Ok((splitmix64(&mut state) % self.warm.len() as u64) as usize)
            };
            let body = match &pick {
                Ok(i) => &self.warm[*i].body,
                Err(body) => body,
            };
            let id = next_id;
            next_id += 1;
            let line = format!("{{\"id\":{id},{}\n", &body[1..]);
            let sent = Instant::now();
            out.first_send.get_or_insert(sent);
            out.attempted += 1;
            match client.writer_mut().write_all(line.as_bytes()) {
                Ok(()) => {
                    inflight.insert(id, (sent, pick));
                    true
                }
                Err(e) => {
                    out.lose(format!("connection {conn}: send: {e}"), 1);
                    false
                }
            }
        };
        for _ in 0..WINDOW {
            if !send(&mut client, &mut inflight, &mut out) {
                out.lose(format!("connection {conn}: gave up"), inflight.len() as u64);
                return out;
            }
        }
        while !inflight.is_empty() {
            let line = match client.read_response_line() {
                Ok(Some(line)) => line,
                Ok(None) | Err(_) => {
                    out.lose(
                        format!("connection {conn}: responses lost"),
                        inflight.len() as u64,
                    );
                    return out;
                }
            };
            let done = Instant::now();
            let line = line.trim_end();
            let Some((id, (sent, pick))) =
                response_id(line).and_then(|id| inflight.remove_entry(&id))
            else {
                out.lose(
                    format!("connection {conn}: response without a pending id: {line:.120}"),
                    inflight.len() as u64,
                );
                return out;
            };
            out.latencies_us
                .push(done.duration_since(sent).as_secs_f64() * 1e6);
            out.completions.push(done);
            if let Some((tracer, root)) = trace {
                tracer.record("serve.roundtrip", root, sent, done);
            }
            match (strip_id(line, id), pick) {
                (None, _) => out.lose(format!("connection {conn}: id {id} not echoed"), 1),
                (Some(answer), Ok(i)) if answer != self.warm[i].answer => out.lose(
                    format!("connection {conn}: answer differs from set-up's: {answer:.160}"),
                    1,
                ),
                (Some(_), Ok(_)) => {}
                (Some(answer), Err(body)) => {
                    if answer.contains("\"ok\":true") {
                        out.misses.push((body, answer));
                    } else {
                        out.lose(
                            format!("connection {conn}: never-seen request failed: {answer:.160}"),
                            1,
                        );
                    }
                }
            }
            if !mode.expired() && !send(&mut client, &mut inflight, &mut out) {
                out.lose(format!("connection {conn}: gave up"), inflight.len() as u64);
                return out;
            }
        }
        out
    }

    /// Runs both connections until the deadline.
    pub fn measure(&mut self, mode: &Mode, trace: Option<&Tracer>, m: &mut Measured) {
        let root = trace.map(|t| t.span("serve.window"));
        let trace = trace.zip(root.as_ref().map(|r| r.id()));
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    let this = &*self;
                    scope.spawn(move || this.load(conn, mode, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        drop(root);
        let mut completions = Vec::new();
        let mut first_send: Option<Instant> = None;
        self.windows += 1;
        for r in results {
            m.attempted += r.attempted;
            m.failed += r.failed;
            m.errors.extend(r.errors);
            m.op_us.extend(r.latencies_us);
            completions.extend(r.completions);
            first_send = match (first_send, r.first_send) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.misses.extend(r.misses);
        }
        completions.sort();
        if let Some(start) = first_send {
            let mut marks = vec![start];
            marks.extend(completions.iter().skip(BATCH - 1).step_by(BATCH));
            m.pass_s.extend(
                marks
                    .windows(2)
                    .map(|w| w[1].duration_since(w[0]).as_secs_f64()),
            );
        }
    }

    /// Runs a traced window and reports the per-layer metrics from the
    /// dp-obs registry (counts and sums only).
    pub fn trace_layers(&mut self, tracer: &Tracer, mode: &Mode, m: &mut Measured) -> Vec<Metric> {
        let before = dp_obs::metrics::snapshot();
        let ops_before = m.op_us.len();
        self.measure(mode, Some(tracer), m);
        let after = dp_obs::metrics::snapshot();
        let requests = (m.op_us.len() - ops_before) as f64;
        let client_mean = m.op_us[ops_before..].iter().sum::<f64>() / requests.max(1.0);
        let counter = |name: &str| (after.counter(name) - before.counter(name)) as f64;
        let ratio = |hits: &str, misses: &str| {
            let (h, x) = (counter(hits), counter(misses));
            if h + x > 0.0 {
                h / (h + x)
            } else {
                0.0
            }
        };
        let mut out = Vec::new();
        let (mut server_us, mut server_n) = (0.0, 0.0);
        for (op, hist) in [
            ("execute", "serve.req.execute_us"),
            ("transform", "serve.req.transform_us"),
            ("sweep-cell", "serve.req.sweep_cell_us"),
        ] {
            let (n, sum) = hist_delta(&before, &after, hist);
            server_us += sum;
            server_n += n;
            out.push(
                Metric::new(format!("serve.op_mean_us.{op}"), sum / n.max(1.0), "us")
                    .with_samples(n as usize),
            );
        }
        let overhead = client_mean - server_us / server_n.max(1.0);
        if let Some(root) = tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "serve.window")
        {
            crate::write_trace(tracer, root.id, "serve-pipelined");
        }
        out.extend([
            Metric::new("serve.overhead_mean_us", overhead, "us").with_samples(requests as usize),
            Metric::new("serve.overhead_share", overhead / client_mean, "ratio"),
            Metric::new(
                "serve.cache_hit_ratio",
                ratio("serve.cache.hits", "serve.cache.misses"),
                "ratio",
            ),
            Metric::new(
                "serve.disk_cache_hit_ratio",
                ratio("serve.disk_cache.hits", "serve.disk_cache.misses"),
                "ratio",
            ),
            Metric::new(
                "serve.bytes_written_per_req",
                counter("serve.bytes_written.pipelined") / requests.max(1.0),
                "bytes",
            ),
        ]);
        out
    }

    /// Re-sends every never-seen request id-less on a fresh connection and
    /// compares the answers, then shuts the server down.
    pub fn finish(mut self, m: &mut Measured) {
        let mut client = Client::connect(&self.endpoint).expect("connect the re-check client");
        for (body, answer) in std::mem::take(&mut self.misses) {
            let again = client.roundtrip_line(&body).ok().flatten();
            if again.as_deref().map(str::trim_end) != Some(answer.as_str()) {
                m.fail(format!(
                    "never-seen answer differs from its id-less re-send: {answer:.160}"
                ));
            }
        }
        drop(client);
        if let Some(server) = self.server.take() {
            shutdown(&self.endpoint, server);
        }
        let _ = std::fs::remove_dir_all(&self.disk);
    }
}

/// `(count, sum_us)` recorded into histogram `name` between two snapshots.
fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (f64, f64) {
    let get = |s: &Snapshot| {
        s.histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum_us))
    };
    let (n0, s0) = get(before);
    let (n1, s1) = get(after);
    ((n1 - n0) as f64, (s1 - s0) as f64)
}
