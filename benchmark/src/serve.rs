//! The serving phases: one load-generator thread driving a one-worker
//! `ServeFront` that was warm-started from the saved artifact.
//!
//! `verify` → `rtt` (closed loop, 1 outstanding) → `capacity` (closed loop, 64
//! outstanding) → `update_burst` (updates only), and in a traced run the
//! freshness probe and the open-loop ladder. The worker count is fixed at 1 —
//! never `available_parallelism` — because this box has two cores and the
//! generator needs the other one.

use std::time::{Duration, Instant};

use rnknn::verify::ground_truth;
use rnknn_graph::generator::SplitMix64;
use rnknn_graph::NodeId;
use rnknn_objects::UpdateEvent;
use rnknn_serve::channel::Receiver;
use rnknn_serve::{FrontStats, KnnRequest, KnnResponse, ServeFront};

use crate::embed::{distances, Tally};
use crate::estimators::{median, per_slice_rates, percentile_ten_beyond};
use crate::inputs::{poisson_schedule, ChurnFeed};
use crate::schema::{GTREE, K, METHODS};
use crate::trace::Tracer;

/// Requests kept in flight by the capacity phase.
pub const OUTSTANDING: usize = 64;

/// Length of the slices the capacity phase's throughput is read in.
pub const SLICE: Duration = Duration::from_millis(100);

/// Several times the rate any workload's front reaches on this box; sizes what
/// a phase allocates or generates ahead of its window.
const GENEROUS_QPS: f64 = 50_000.0;

/// How long the generator waits for one response before counting it missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// The front under test with its response stream and the generator's state.
pub struct Harness {
    /// The serving front.
    pub front: ServeFront,
    /// Its response stream.
    pub responses: Receiver<KnnResponse>,
    /// Query vertices, cycled through.
    pub queries: Vec<NodeId>,
    /// The update stream.
    pub feed: ChurnFeed,
    /// Whether an update rides along with every query.
    pub churn: bool,
    next_id: u64,
    /// First answer seen per query vertex while the object set was fixed; a
    /// later answer for the same vertex must repeat it.
    reference: Vec<Option<Vec<u64>>>,
}

impl Harness {
    /// Wraps a started front.
    pub fn new(
        front: ServeFront,
        responses: Receiver<KnnResponse>,
        queries: Vec<NodeId>,
        feed: ChurnFeed,
        churn: bool,
    ) -> Harness {
        let reference = vec![None; queries.len()];
        Harness { front, responses, queries, feed, churn, next_id: 0, reference }
    }

    fn request(&mut self) -> KnnRequest {
        let id = self.next_id;
        self.next_id += 1;
        let query = self.queries[id as usize % self.queries.len()];
        KnnRequest { id, method: METHODS[GTREE].0, query, k: K, deadline: None }
    }

    /// Checks one response of a measured phase. While no update is in flight
    /// the object set is fixed, so an answer must repeat the first one seen for
    /// its vertex; under churn only its shape can be checked without a
    /// Dijkstra per response (the epoch-exact check is `verify`'s job).
    fn check(&mut self, response: &KnnResponse, fixed_objects: bool, tally: &mut Tally) {
        let slot = response.id as usize % self.queries.len();
        let ok = match &response.output {
            Err(_) => false,
            Ok(out) => {
                let sorted = out.result.windows(2).all(|w| w[0].1 <= w[1].1);
                let repeats = match &self.reference[slot] {
                    _ if !fixed_objects => out.result.len() == K,
                    Some(first) => distances(out).eq(first.iter().copied()),
                    None => {
                        self.reference[slot] = Some(distances(out).collect());
                        true
                    }
                };
                sorted && repeats
            }
        };
        tally.check(ok, || {
            format!(
                "served request {} (vertex {}): {:?}",
                response.id,
                self.queries[slot],
                response.output.as_ref().map(|o| o.distances())
            )
        });
    }

    fn receive(&mut self, tally: &mut Tally) -> Option<KnnResponse> {
        let response = self.responses.recv_timeout(RESPONSE_TIMEOUT).ok();
        if response.is_none() {
            tally.check(false, || "response missing after 10 s".to_string());
        }
        response
    }

    /// Blocks until the published snapshot holds exactly the feed's consumed
    /// set (every handed-out event applied and visible), or five seconds pass.
    fn wait_until_visible(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if self.front.store().snapshot().objects().vertices() == self.feed.consumed().vertices()
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The serving correctness gate: rounds of updates followed by queries, each
    /// response checked against the Dijkstra ground truth of the epoch it names.
    pub fn verify(&mut self, rounds: usize, tally: &mut Tally) {
        for round in 0..rounds {
            for _ in 0..8 {
                let event = self.feed.next_event();
                let sent = self.front.submit_update(event).is_ok();
                tally.check(sent, || format!("verify round {round}: update refused"));
            }
            let visible = self.wait_until_visible();
            tally.check(visible, || format!("verify round {round}: updates not visible after 5 s"));
            let snapshot = self.front.store().snapshot();
            for _ in 0..16 {
                let request = self.request();
                if self.front.submit(request).is_err() {
                    tally.check(false, || format!("verify round {round}: submit refused"));
                    continue;
                }
                let Some(response) = self.receive(tally) else { continue };
                let graph = self.front.store().engine().graph();
                let truth = ground_truth(graph, request.query, K, snapshot.objects());
                let exact = response
                    .output
                    .as_ref()
                    .is_ok_and(|out| distances(out).eq(truth.iter().map(|&(_, d)| d)));
                tally.check(exact && response.epoch == snapshot.epoch(), || {
                    format!(
                        "verify round {round}: vertex {} at epoch {} differs from its epoch's Dijkstra",
                        request.query, response.epoch
                    )
                });
            }
        }
        self.forget_answers();
    }

    /// The object set changed: the answers recorded so far are stale.
    fn forget_answers(&mut self) {
        self.reference.iter_mut().for_each(|r| *r = None);
    }
}

/// What the `rtt` phase saw.
#[derive(Debug, Clone)]
pub struct Rtt {
    /// Submit → response, ns, one per request.
    pub rtt_ns: Vec<f64>,
    /// `stats.elapsed_micros` of each response, µs.
    pub search_us: Vec<f64>,
}

/// Closed loop, one request outstanding: the round trip through admission,
/// queue, batch, epoch pin, search and the response channel, with nothing
/// queued behind anything.
pub fn rtt(
    h: &mut Harness,
    duration: Duration,
    tracer: &mut Tracer,
    spans: Option<u32>,
    tally: &mut Tally,
) -> Rtt {
    let mut result = Rtt { rtt_ns: Vec::new(), search_us: Vec::new() };
    let fixed = !h.churn;
    if h.churn {
        h.feed.ensure((duration.as_secs_f64() * GENEROUS_QPS) as usize + 1);
    }
    let end = Instant::now() + duration;
    while Instant::now() < end {
        let request = h.request();
        let t0 = Instant::now();
        let submitted = h.front.submit(request);
        let t1 = Instant::now();
        if h.churn {
            let event = h.feed.next_event();
            let sent = h.front.submit_update(event).is_ok();
            tally.check(sent, || "rtt: update refused".to_string());
        }
        if submitted.is_err() {
            tally.check(false, || "rtt: submit refused".to_string());
            continue;
        }
        let Some(response) = h.receive(tally) else { continue };
        let t2 = Instant::now();
        h.check(&response, fixed, tally);
        let search = response.output.as_ref().map_or(0, |o| o.stats.elapsed_micros);
        result.rtt_ns.push((t2 - t0).as_nanos() as f64);
        result.search_us.push(search as f64);
        if let Some(parent) = spans {
            let root = tracer.record("request", parent, request.id + 1, t0, t2);
            tracer.record("serve_front.submit", root, request.id + 1, t0, t1);
            let wait = tracer.record("serve_front.wait", root, request.id + 1, t1, t2);
            // The worker reports how long the search took, not when: the span is
            // laid against the end of the wait, where it must have finished.
            let search_start =
                t2.checked_sub(Duration::from_micros(search)).map_or(t1, |s| s.max(t1));
            tracer.record("search", wait, request.id + 1, search_start, t2);
        }
    }
    result
}

/// The capacity phase's submit side: when each request was sent and how long
/// `ServeFront::submit` took (one more clock read per ~200 µs request).
struct Submits {
    at: Vec<Instant>,
    time: Duration,
}

impl Submits {
    /// Submits the next request (and, under churn, the update that rides along).
    /// Returns whether the front accepted the request.
    fn next(&mut self, h: &mut Harness, tally: &mut Tally) -> bool {
        let request = h.request();
        let t0 = Instant::now();
        let ok = h.front.submit(request).is_ok();
        self.time += t0.elapsed();
        self.at.push(t0);
        tally.check(ok, || "capacity: submit refused".to_string());
        if h.churn {
            let event = h.feed.next_event();
            let sent = h.front.submit_update(event).is_ok();
            tally.check(sent, || "capacity: update refused".to_string());
        }
        ok
    }
}

/// What the `capacity` phase saw.
#[derive(Debug, Clone)]
pub struct Capacity {
    /// Responses inside the window / window length.
    pub qps: f64,
    /// Per complete [`SLICE`].
    pub slice_qps: Vec<f64>,
    /// Σ search time of the window's responses / window length.
    pub worker_busy_share: f64,
    /// Mean time inside `ServeFront::submit`, ns.
    pub submit_ns: f64,
}

/// Closed loop, [`OUTSTANDING`] requests in flight: every response triggers the
/// next submit, so the worker never idles and the rate is what the front can
/// sustain. Only responses that arrive inside the window count; the tail is
/// drained afterwards, unmeasured. With `spans` set, every request records spans.
pub fn capacity(
    h: &mut Harness,
    duration: Duration,
    tracer: &mut Tracer,
    spans: Option<u32>,
    tally: &mut Tally,
) -> Capacity {
    let fixed = !h.churn;
    // Room for more requests than any front here answers in the window, so
    // that neither a vector nor the update stream grows inside it.
    let room = (duration.as_secs_f64() * GENEROUS_QPS) as usize + OUTSTANDING;
    if h.churn {
        h.feed.ensure(room);
    }
    let mut stamps: Vec<u64> = Vec::with_capacity(room);
    let base_id = h.next_id;
    let mut search_us = 0u64;
    let mut submits = Submits { at: Vec::with_capacity(room), time: Duration::ZERO };
    let mut in_flight = 0usize;
    let start = Instant::now();
    let end = start + duration;
    for _ in 0..OUTSTANDING {
        in_flight += submits.next(h, tally) as usize;
    }
    while in_flight > 0 {
        let Some(response) = h.receive(tally) else { break };
        let now = Instant::now();
        in_flight -= 1;
        h.check(&response, fixed, tally);
        if now < end {
            stamps.push((now - start).as_nanos() as u64);
            search_us += response.output.as_ref().map_or(0, |o| o.stats.elapsed_micros);
            if let Some(parent) = spans {
                let sent = submits.at[(response.id - base_id) as usize];
                let root = tracer.record("request", parent, response.id + 1, sent, now);
                tracer.record("serve_front.wait", root, response.id + 1, sent, now);
            }
            in_flight += submits.next(h, tally) as usize;
        }
    }
    let window_ns = duration.as_nanos() as u64;
    let slice_qps = per_slice_rates(&stamps, 0, window_ns, SLICE.as_nanos() as u64);
    Capacity {
        qps: stamps.len() as f64 / duration.as_secs_f64(),
        worker_busy_share: search_us as f64 / 1e6 / duration.as_secs_f64(),
        submit_ns: submits.time.as_nanos() as f64 / submits.at.len().max(1) as f64,
        slice_qps,
    }
}

/// Updates only: `count` events submitted back to back, timed from the first
/// submit until the updater has applied the last. Prices the write path —
/// `ObjectStore::stage`, R-tree surgery, occurrence-list propagation, publish
/// and reclaim — with no reader pinning an epoch. Returns events per second.
pub fn update_burst(
    h: &mut Harness,
    count: usize,
    tracer: &mut Tracer,
    parent: u32,
    tally: &mut Tally,
) -> f64 {
    // Taken out before the clock starts: generating the stream is the
    // benchmark's work, not the system's.
    let events = h.feed.take(count);
    let before = h.front.updates_applied();
    let span = tracer.open("serve_store.update_burst", parent);
    let start = Instant::now();
    for &event in &events {
        let sent = h.front.submit_update(event).is_ok();
        tally.check(sent, || "update burst: update refused".to_string());
    }
    let deadline = start + Duration::from_secs(60);
    while h.front.updates_applied() - before < count as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
    let wall = start.elapsed();
    tracer.close(span);
    let applied = h.front.updates_applied() - before;
    tally.check(applied == count as u64, || {
        format!("update burst: {applied} of {count} events applied after 60 s")
    });
    let visible = h.wait_until_visible();
    tally.check(visible, || "update burst: final state not visible after 5 s".to_string());
    h.forget_answers();
    applied as f64 / wall.as_secs_f64()
}

/// Freshness in Polynesia's sense: how long after `submit_update(Insert(v))`
/// the first published snapshot contains `v`. Probed on an otherwise idle
/// front; each probe removes its vertex again, so the store ends where it began.
/// Returns the delays in µs.
pub fn freshness(h: &mut Harness, samples: usize, seed: u64, tally: &mut Tally) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0xF2E5);
    let mut delays = Vec::with_capacity(samples);
    for _ in 0..samples {
        let v = h.feed.free_vertex(&mut rng);
        for (event, present) in [(UpdateEvent::Insert(v), true), (UpdateEvent::Remove(v), false)] {
            let start = Instant::now();
            let sent = h.front.submit_update(event).is_ok();
            let deadline = start + Duration::from_secs(5);
            while h.front.store().snapshot().objects().contains(v) != present
                && Instant::now() < deadline
            {
                std::hint::spin_loop();
            }
            let seen = h.front.store().snapshot().objects().contains(v) == present;
            tally.check(sent && seen, || format!("freshness: {event:?} not visible after 5 s"));
            if present {
                delays.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    delays
}

/// One rung of the open-loop ladder.
#[derive(Debug, Clone, Copy)]
pub struct OpenRung {
    /// Median over one-second windows of the window's p50 latency, µs.
    pub p50_us: f64,
    /// Median over one-second windows of the window's p99 latency, µs.
    pub p99_us: f64,
    /// 99th percentile of how late the generator sent, µs.
    pub lateness_p99_us: f64,
}

/// Open loop: Poisson arrivals at `rate` per second whether or not earlier
/// requests have been answered; latency runs from when a request was *due*, so
/// a stall charges everything queued behind it. The generator spins on one
/// core, and how late it ran is reported beside the latencies it produced.
pub fn open_loop(
    h: &mut Harness,
    rate: u32,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
) -> OpenRung {
    let due = poisson_schedule(seed, rate, seconds);
    let base_id = h.next_id;
    let mut lateness_us: Vec<f64> = Vec::with_capacity(due.len());
    // (due time, latency) per answered request.
    let mut latencies: Vec<(u64, f64)> = Vec::with_capacity(due.len());
    let (mut sent, mut accepted, mut answered) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let give_up = start + Duration::from_secs_f64(seconds) + RESPONSE_TIMEOUT;
    while (sent < due.len() || answered < accepted) && Instant::now() < give_up {
        let now = (Instant::now() - start).as_nanos() as u64;
        while sent < due.len() && due[sent] <= now {
            let request = h.request();
            // Never block the generator: a full shard is a refused request.
            let ok = h.front.try_submit(request).is_ok();
            tally.check(ok, || format!("open loop r{rate}: submit refused (saturated)"));
            accepted += ok as usize;
            lateness_us.push((now - due[sent]) as f64 / 1e3);
            sent += 1;
        }
        while let Ok(response) = h.responses.try_recv() {
            let now = (Instant::now() - start).as_nanos() as u64;
            answered += 1;
            h.check(&response, true, tally);
            let due_at = due[(response.id - base_id) as usize];
            latencies.push((due_at, now.saturating_sub(due_at) as f64 / 1e3));
        }
        std::hint::spin_loop();
    }
    tally.check(answered == accepted, || {
        format!("open loop r{rate}: {} responses missing", accepted - answered)
    });

    let windows = (seconds as u64).max(1);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for w in 0..windows {
        let mut window: Vec<f64> = latencies
            .iter()
            .filter(|(due_at, _)| due_at / 1_000_000_000 == w)
            .map(|&(_, latency)| latency)
            .collect();
        if window.is_empty() {
            continue;
        }
        p50s.push(median(&mut window));
        p99s.push(percentile_ten_beyond(&window, 0.99).value);
    }
    lateness_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    let or_nan = |mut v: Vec<f64>| if v.is_empty() { f64::NAN } else { median(&mut v) };
    OpenRung {
        p50_us: or_nan(p50s),
        p99_us: or_nan(p99s),
        lateness_p99_us: if lateness_us.is_empty() {
            f64::NAN
        } else {
            percentile_ten_beyond(&lateness_us, 0.99).value
        },
    }
}

/// Shuts the front down and returns its lifetime counters.
pub fn shutdown(h: &mut Harness) -> (FrontStats, u64) {
    let clone_fallbacks = h.front.store().clone_fallbacks();
    (h.front.shutdown(), clone_fallbacks)
}
