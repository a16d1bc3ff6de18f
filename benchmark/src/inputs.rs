//! Everything a run feeds the system, made from `--seed` before any timing.
//!
//! The road network and the initial object set are the *dataset*: fixed seeds,
//! the same in every run, so that two runs differ only in what was asked of the
//! system — the query vertices, the source–target pairs of the layer probes, the
//! update stream and the open-loop arrival schedule, all drawn from `--seed`.

use rnknn_graph::generator::SplitMix64;
use rnknn_graph::NodeId;
use rnknn_objects::{ObjectSet, UpdateEvent};

/// Seed of the generated road network and of the initial object set.
pub const DATASET_SEED: u64 = 42;

/// Source–target pairs timed by the point-to-point layer probes.
pub const PAIRS: usize = 512;

/// `count` query vertices drawn uniformly from `0..num_vertices`, one per
/// equal-width stratum of the vertex range and then shuffled: every vertex is
/// as likely as any other, but two seeds cannot differ by one of them crowding
/// a corner of the network, which keeps the population percentiles comparable
/// across seeds.
pub fn query_vertices(seed: u64, num_vertices: usize, count: usize) -> Vec<NodeId> {
    let mut rng = SplitMix64::new(seed ^ 0x51_7C_C1_B7);
    let n = num_vertices as u64;
    let mut queries: Vec<NodeId> = (0..count as u64)
        .map(|i| {
            let (low, high) = (i * n / count as u64, ((i + 1) * n / count as u64).max(1));
            (low + rng.next_below((high - low).max(1))).min(n - 1) as NodeId
        })
        .collect();
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    queries
}

/// [`PAIRS`] uniform source–target pairs with distinct endpoints.
pub fn vertex_pairs(seed: u64, num_vertices: usize) -> Vec<(NodeId, NodeId)> {
    let mut rng = SplitMix64::new(seed ^ 0x9A_1F_55_03);
    let n = num_vertices as u64;
    (0..PAIRS)
        .map(|_| {
            let s = rng.next_below(n);
            let t = (s + 1 + rng.next_below(n - 1)) % n;
            (s as NodeId, t as NodeId)
        })
        .collect()
}

/// Poisson arrival times (ns from the phase start) at `rate` per second over
/// `seconds`: exponential gaps, so bursts and lulls occur as they would with
/// independent users.
pub fn poisson_schedule(seed: u64, rate: u32, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ (rate as u64) << 32 ^ 0x0F_E1_10_0D);
    let mean_gap_ns = 1e9 / rate as f64;
    let horizon = seconds * 1e9;
    let mut due = Vec::with_capacity((rate as f64 * seconds * 1.2) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// The update stream: insert : remove : move = 1 : 1 : 2, every event effective
/// against the state the previous ones left. Unlike `rnknn_objects::churn_stream`
/// the population cannot drift: an insert-or-remove draw goes whichever way
/// brings the count back to the initial one, so the object density a phase
/// measures is the workload's, in every second of every seed (an unbiased
/// 1 : 1 walk strays by hundreds of objects over the events one run applies).
/// Events are generated ahead of the measured phases and handed out in order;
/// `consumed` mirrors what the store must contain once the handed-out events
/// are all applied.
pub struct ChurnFeed {
    num_vertices: usize,
    rng: SplitMix64,
    population: usize,
    /// State after every event handed out so far.
    consumed: ObjectSet,
    /// State after every event generated so far.
    tail: ObjectSet,
    pending: Vec<UpdateEvent>,
    cursor: usize,
}

impl ChurnFeed {
    /// A feed whose first event applies to `initial`.
    ///
    /// # Panics
    ///
    /// Panics unless `initial` holds at least two objects and leaves at least
    /// two vertices free.
    pub fn new(seed: u64, num_vertices: usize, initial: &ObjectSet) -> ChurnFeed {
        assert!(initial.len() >= 2 && initial.len() + 2 <= num_vertices, "no room to churn");
        ChurnFeed {
            num_vertices,
            rng: SplitMix64::new(seed ^ 0xC4A2_11FE),
            population: initial.len(),
            consumed: initial.clone(),
            tail: initial.clone(),
            pending: Vec::new(),
            cursor: 0,
        }
    }

    fn generate(&mut self) -> UpdateEvent {
        let member = self.tail.vertices()[self.rng.next_below(self.tail.len() as u64) as usize];
        let free = loop {
            let v = self.rng.next_below(self.num_vertices as u64) as NodeId;
            if !self.tail.contains(v) {
                break v;
            }
        };
        let event = match self.rng.next_below(4) {
            0 | 1 if self.tail.len() > self.population => UpdateEvent::Remove(member),
            0 | 1 if self.tail.len() < self.population => UpdateEvent::Insert(free),
            0 => UpdateEvent::Insert(free),
            1 => UpdateEvent::Remove(member),
            _ => UpdateEvent::Move { from: member, to: free },
        };
        let changed = event.apply_to(&mut self.tail);
        debug_assert!(changed, "generated a no-op event {event:?}");
        event
    }

    /// Generates ahead until `count` events are ready, so that a measured phase
    /// that hands out at most `count` never pays for generation.
    pub fn ensure(&mut self, count: usize) {
        while self.pending.len() - self.cursor < count {
            let event = self.generate();
            self.pending.push(event);
        }
    }

    /// The next event of the stream.
    pub fn next_event(&mut self) -> UpdateEvent {
        self.ensure(1);
        let event = self.pending[self.cursor];
        self.cursor += 1;
        event.apply_to(&mut self.consumed);
        event
    }

    /// The next `count` events, taken out in one piece.
    pub fn take(&mut self, count: usize) -> Vec<UpdateEvent> {
        self.ensure(count);
        (0..count).map(|_| self.next_event()).collect()
    }

    /// The object set the store holds once every handed-out event is applied.
    pub fn consumed(&self) -> &ObjectSet {
        &self.consumed
    }

    /// A vertex that holds no object now and is no target of a generated event.
    pub fn free_vertex(&self, rng: &mut SplitMix64) -> NodeId {
        loop {
            let v = rng.next_below(self.num_vertices as u64) as NodeId;
            if !self.consumed.contains(v) && !self.tail.contains(v) {
                return v;
            }
        }
    }

    /// The generated-but-not-yet-handed-out events (for the input fingerprint).
    pub fn upcoming(&self) -> &[UpdateEvent] {
        &self.pending[self.cursor..]
    }
}

/// FNV-1a over the run's inputs: equal fingerprints prove equal inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a vertex list in, length first.
    pub fn vertices(&mut self, vertices: &[NodeId]) {
        self.word(vertices.len() as u64);
        for &v in vertices {
            self.word(v as u64);
        }
    }

    /// Mixes an update stream in.
    pub fn events(&mut self, events: &[UpdateEvent]) {
        self.word(events.len() as u64);
        for event in events {
            match *event {
                UpdateEvent::Insert(v) => self.word(1 << 40 | v as u64),
                UpdateEvent::Remove(v) => self.word(2 << 40 | v as u64),
                UpdateEvent::Move { from, to } => {
                    self.word(3 << 40 | (from as u64) << 20 ^ to as u64)
                }
            }
        }
    }

    /// The fingerprint as printed.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
        assert_eq!(query_vertices(7, 23_190, 1000), query_vertices(7, 23_190, 1000));
        assert_ne!(query_vertices(7, 23_190, 1000), query_vertices(8, 23_190, 1000));
        assert_eq!(poisson_schedule(7, 1000, 2.0), poisson_schedule(7, 1000, 2.0));
        assert_ne!(poisson_schedule(7, 1000, 2.0), poisson_schedule(7, 2000, 2.0));
        let queries = query_vertices(3, 2_000, 200);
        assert!(queries.iter().all(|&q| (q as usize) < 2_000));
        assert!(vertex_pairs(3, 2_000).iter().all(|&(s, t)| s != t && (t as usize) < 2_000));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_sorted() {
        let due = poisson_schedule(11, 2000, 3.0);
        assert!((5_400..6_600).contains(&due.len()), "{} arrivals for 6000 expected", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 3_000_000_000);
    }

    #[test]
    fn churn_feed_events_are_all_effective_and_repeatable() {
        let initial = ObjectSet::new("t", 500, (0..50).map(|i| i * 7).collect());
        let mut feed = ChurnFeed::new(5, 500, &initial);
        let mut mirror = initial.clone();
        for event in feed.take(5000) {
            assert!(event.apply_to(&mut mirror), "{event:?} was a no-op");
            assert!(mirror.len().abs_diff(initial.len()) <= 1, "population drifted");
        }
        assert_eq!(mirror.vertices(), feed.consumed().vertices());
        let free = feed.free_vertex(&mut SplitMix64::new(1));
        assert!(!mirror.contains(free));

        let mut again = ChurnFeed::new(5, 500, &initial);
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.events(&again.take(64));
        b.events(&ChurnFeed::new(5, 500, &initial).take(64));
        assert_eq!(a.hex(), b.hex());
    }
}
