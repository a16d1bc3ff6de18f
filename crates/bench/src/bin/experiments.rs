//! Regenerates every table and figure of the paper's evaluation (run without
//! arguments for the list of experiments).
//!
//! ```sh
//! cargo run --release -p rnknn-bench --bin experiments -- all --scale 0.15
//! cargo run --release -p rnknn-bench --bin experiments -- fig10 fig11
//! ```
//!
//! Output is printed to stdout as fixed-width tables; `all` additionally writes the
//! collected tables to `experiments_results.md` in the current directory.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Instant;

use rnknn::engine::{EngineConfig, Method};
use rnknn::ier::{ChOracle, DijkstraOracle, DistanceOracle, IerSearch, PhlOracle, TnrOracle};
use rnknn::ine::{IneSearch, IneVariant};
use rnknn::tnr::TnrSourceState;
use rnknn_bench::{cli, defaults, Table, Testbed, TestbedOptions, DEFAULT_QUERIES, DEFAULT_SCALE};
use rnknn_ch::{ChForwardSearch, ChTargetDirectory};
use rnknn_graph::generator::DatasetPreset;
use rnknn_graph::{EdgeWeightKind, Graph, NodeId, Weight, INFINITY};
use rnknn_gtree::{
    widen, Cell, DistanceMatrix, Gtree, GtreeDistanceOracle, GtreeSearch, GtreeSearchStats,
    LeafSearchMode, NodeIndex, OccurrenceList,
};
use rnknn_objects::{
    build_occurrence_list, build_rtree, clustered, min_object_distance, uniform, ObjectRTree,
    ObjectSet, PoiSets,
};
use rnknn_pathfinding::SearchScratch;
use rnknn_road::{RoadIndex, RoadKnn};
use rnknn_silc::{SilcConfig, SilcIndex};

/// Methods shown in the paper's main comparison figures.
const MAIN_METHODS: [Method; 6] =
    [Method::Ine, Method::Road, Method::Gtree, Method::IerGtree, Method::IerPhl, Method::DisBrw];

/// Methods available on the largest networks (DisBrw / PHL cannot always be built).
const LARGE_METHODS: [Method; 4] = [Method::Ine, Method::Road, Method::Gtree, Method::IerGtree];

struct Ctx {
    scale: f64,
    queries: usize,
    /// Index-artifact persistence (`--save`/`--load`) applied to every testbed.
    artifacts: rnknn_bench::artifacts::ArtifactIo,
    /// Cache of prepared testbeds, keyed by (preset, weight kind).
    testbeds: HashMap<(DatasetPreset, EdgeWeightKind), Testbed>,
    collected: Vec<Table>,
}

impl Ctx {
    fn new(scale: f64, queries: usize, artifacts: rnknn_bench::artifacts::ArtifactIo) -> Ctx {
        Ctx { scale, queries, artifacts, testbeds: HashMap::new(), collected: Vec::new() }
    }

    /// The paper's "NW" stands in for the median-size default network and "US" for the
    /// largest; SILC / PHL are only built where the paper could build them.
    fn testbed(&mut self, preset: DatasetPreset, kind: EdgeWeightKind) -> &mut Testbed {
        let scale = self.scale;
        let queries = self.queries;
        let artifacts = self.artifacts.clone();
        self.testbeds.entry((preset, kind)).or_insert_with(|| {
            // Mirror the paper's memory limits: SILC only for the smaller networks.
            let engine =
                EngineConfig { build_tnr: false, silc_max_vertices: 10_000, ..Default::default() };
            let options = TestbedOptions { scale, kind, num_queries: queries, engine, artifacts };
            eprintln!("[setup] building testbed {} ({kind:?}, scale {scale}) ...", preset.name());
            let start = Instant::now();
            let bed = Testbed::build(preset, &options);
            eprintln!(
                "[setup] {} ready: {} vertices, {:.1}s",
                preset.name(),
                bed.graph().num_vertices(),
                start.elapsed().as_secs_f64()
            );
            bed
        })
    }

    fn emit(&mut self, table: Table) {
        print!("{}", table.render());
        self.collected.push(table);
    }
}

// ---------------------------------------------------------------------------
// Generic sweeps
// ---------------------------------------------------------------------------

fn sweep_k(
    ctx: &mut Ctx,
    title: &str,
    preset: DatasetPreset,
    kind: EdgeWeightKind,
    methods: &[Method],
    density: f64,
) {
    let bed = ctx.testbed(preset, kind);
    bed.set_uniform_objects(density, 11);
    let mut table =
        Table::new(title, "k", methods.iter().map(|m| m.name().to_string()).collect(), "µs/query");
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(preset, kind);
        let values: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        table.push(k.to_string(), values);
    }
    ctx.emit(table);
}

fn sweep_density(
    ctx: &mut Ctx,
    title: &str,
    preset: DatasetPreset,
    kind: EdgeWeightKind,
    methods: &[Method],
    k: usize,
) {
    let mut table = Table::new(
        title,
        "density",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let bed = ctx.testbed(preset, kind);
        bed.set_uniform_objects(d, 13);
        let values: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        table.push(format!("{d}"), values);
    }
    ctx.emit(table);
}

fn sweep_networks(
    ctx: &mut Ctx,
    title: &str,
    presets: &[DatasetPreset],
    kind: EdgeWeightKind,
    methods: &[Method],
) {
    let mut table = Table::new(
        title,
        "|V|",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &p in presets {
        let bed = ctx.testbed(p, kind);
        bed.set_uniform_objects(defaults::DENSITY, 7);
        let n = bed.graph().num_vertices();
        let values: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("{} ({n})", p.name()), values);
    }
    ctx.emit(table);
}

// ---------------------------------------------------------------------------
// Individual experiments
// ---------------------------------------------------------------------------

fn table1(ctx: &mut Ctx) {
    let mut table = Table::new(
        "Table 1: road network datasets (scaled stand-ins for DIMACS)",
        "name",
        vec!["paper |V|".into(), "scaled |V|".into(), "scaled |E|".into()],
        "count",
    );
    for preset in DatasetPreset::all() {
        let net = preset.generate(ctx.scale);
        table.push(
            preset.name(),
            vec![preset.paper_vertices() as f64, net.num_vertices() as f64, net.num_edges() as f64],
        );
    }
    ctx.emit(table);
}

fn table2(ctx: &mut Ctx) {
    let mut table = Table::new(
        "Table 2: real-world object sets (POI-like substitutes, NW & US stand-ins)",
        "category",
        vec!["NW size".into(), "NW density".into(), "US size".into(), "US density".into()],
        "count / ratio",
    );
    let nw = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let us = ctx.testbed(DatasetPreset::US, EdgeWeightKind::Distance).graph().clone();
    let nw_sets = PoiSets::generate(&nw, 5);
    let us_sets = PoiSets::generate(&us, 6);
    for (cat, set) in us_sets.iter() {
        let nw_set = nw_sets.get(cat);
        table.push(
            cat.name(),
            vec![
                nw_set.len() as f64,
                nw_set.density(nw.num_vertices()),
                set.len() as f64,
                set.density(us.num_vertices()),
            ],
        );
    }
    ctx.emit(table);
}

/// Figure 4 / Figure 23: IER variants (Dijk, MGtree, PHL, TNR, CH) varying k and density
/// on the NW stand-in.
///
/// Every `X::new(..)` below is the oracle the engine ships, on fresh buffers: all
/// candidate searches are bounded by IER's running k-th candidate, so the columns
/// are not comparable with runs from before PR 12 (unbounded Dijk/TNR/CH modes).
/// Each cell runs its query set once untimed, then timed. The CH target labels are
/// filled when the cell's target directory is built, before either run: their size
/// and build time are object-index costs (Figure 18).
fn ier_variants(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let queries = {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.queries.clone()
    };
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let ch = rnknn::ch::ContractionHierarchy::build(&graph);
    let phl = rnknn::phl::HubLabels::from_ch(&graph, &ch);
    let tnr = rnknn::tnr::TransitNodeRouting::from_ch(&graph, &ch);
    let gtree = Gtree::build(&graph);

    let series = vec!["Dijk".into(), "MGtree".into(), "PHL".into(), "TNR".into(), "CH".into()];
    fn time<O: DistanceOracle>(
        graph: &Graph,
        oracle: O,
        queries: &[NodeId],
        rtree: &ObjectRTree,
        k: usize,
    ) -> f64 {
        let mut ier = IerSearch::new(graph, oracle);
        for &q in queries {
            std::hint::black_box(ier.knn(q, k, rtree));
        }
        let start = Instant::now();
        for &q in queries {
            std::hint::black_box(ier.knn(q, k, rtree));
        }
        start.elapsed().as_micros() as f64 / queries.len() as f64
    }
    let measure = |objects: &ObjectSet, rtree: &ObjectRTree, k: usize| -> Vec<f64> {
        let targets = ChTargetDirectory::build(&ch, objects.vertices());
        let mut search = ChForwardSearch::new();
        vec![
            time(
                &graph,
                DijkstraOracle::new(&graph, &mut SearchScratch::new()),
                &queries,
                rtree,
                k,
            ),
            time(&graph, GtreeDistanceOracle::new(&gtree, &graph, queries[0]), &queries, rtree, k),
            match &phl {
                Some(phl) => time(&graph, PhlOracle::new(phl), &queries, rtree, k),
                None => f64::NAN,
            },
            time(&graph, TnrOracle::new(&ch, &tnr, &mut TnrSourceState::new()), &queries, rtree, k),
            time(&graph, ChOracle::new(&ch, &targets, &mut search), &queries, rtree, k),
        ]
    };

    let mut by_k = Table::new(
        &format!("{figure}(a): IER variants, varying k (NW, d=0.001, {kind:?})"),
        "k",
        series.clone(),
        "µs/query",
    );
    let objects = uniform(&graph, defaults::DENSITY, 3);
    let rtree = ObjectRTree::build(&graph, &objects);
    for &k in &defaults::K_SWEEP {
        by_k.push(k.to_string(), measure(&objects, &rtree, k));
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        &format!("{figure}(b): IER variants, varying density (NW, k=10, {kind:?})"),
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 5);
        let rtree = ObjectRTree::build(&graph, &objects);
        by_d.push(format!("{d}"), measure(&objects, &rtree, defaults::K));
    }
    ctx.emit(by_d);
}

/// The three physical distance-matrix layouts of Figure 6 / Table 3. The library
/// ships the array only; the two hash tables exist here, as probe structures
/// filled from the array tree's real cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatrixKind {
    /// Separate chaining keyed by `(row, col)` (the `std` `HashMap`, mirroring the
    /// paper's `unordered_map` variant).
    ChainedHashing,
    /// Open addressing with quadratic probing (the paper's `dense_hash_map` variant).
    QuadraticProbing,
    /// The shipped row-major array.
    Array,
}

impl MatrixKind {
    /// All variants, in the order the paper plots them.
    fn all() -> [MatrixKind; 3] {
        [MatrixKind::ChainedHashing, MatrixKind::QuadraticProbing, MatrixKind::Array]
    }

    fn name(self) -> &'static str {
        match self {
            MatrixKind::Array => "Array",
            MatrixKind::ChainedHashing => "Chained Hashing",
            MatrixKind::QuadraticProbing => "Quad. Probing",
        }
    }
}

/// Open-addressing hash table with quadratic probing, sized once at fill time.
struct QuadraticTable {
    keys: Vec<u64>,
    values: Vec<Cell>,
    mask: u64,
}

const EMPTY_KEY: u64 = u64::MAX;

impl QuadraticTable {
    fn with_capacity(n: usize) -> Self {
        let cap = (n.max(4) * 2).next_power_of_two();
        QuadraticTable { keys: vec![EMPTY_KEY; cap], values: vec![0; cap], mask: cap as u64 - 1 }
    }

    #[inline]
    fn hash(key: u64) -> u64 {
        // Fibonacci hashing; adequate spread for (row, col) packed keys.
        key.wrapping_mul(0x9E3779B97F4A7C15)
    }

    fn insert(&mut self, key: u64, value: Cell) {
        let mut idx = Self::hash(key) & self.mask;
        let mut step = 0u64;
        while self.keys[idx as usize] != EMPTY_KEY && self.keys[idx as usize] != key {
            step += 1;
            idx = (idx + step * step) & self.mask;
        }
        self.keys[idx as usize] = key;
        self.values[idx as usize] = value;
    }

    /// The value stored under `key` and the number of slots the probe sequence
    /// inspected to reach it.
    #[inline]
    fn find(&self, key: u64) -> (Cell, u64) {
        let mut idx = Self::hash(key) & self.mask;
        let mut step = 0u64;
        while self.keys[idx as usize] != key {
            assert!(self.keys[idx as usize] != EMPTY_KEY, "cell {key:#x} was never filled");
            step += 1;
            idx = (idx + step * step) & self.mask;
        }
        (self.values[idx as usize], step + 1)
    }
}

#[inline]
fn pack(row: usize, col: usize) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// One G-tree node's matrix in one of the three layouts.
enum ProbeMatrix<'a> {
    Array(&'a DistanceMatrix),
    Chained(HashMap<u64, Cell>),
    Quadratic(QuadraticTable),
}

impl<'a> ProbeMatrix<'a> {
    /// `m`'s cells in layout `kind`.
    fn fill(kind: MatrixKind, m: &'a DistanceMatrix) -> ProbeMatrix<'a> {
        let cells = || {
            (0..m.rows()).flat_map(move |r| (0..m.cols()).map(move |c| (pack(r, c), m.get(r, c))))
        };
        match kind {
            MatrixKind::Array => ProbeMatrix::Array(m),
            MatrixKind::ChainedHashing => ProbeMatrix::Chained(cells().collect()),
            MatrixKind::QuadraticProbing => {
                let mut table = QuadraticTable::with_capacity(m.rows() * m.cols());
                cells().for_each(|(key, value)| table.insert(key, value));
                ProbeMatrix::Quadratic(table)
            }
        }
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> Cell {
        match self {
            ProbeMatrix::Array(m) => m.get(row, col),
            ProbeMatrix::Chained(map) => map[&pack(row, col)],
            ProbeMatrix::Quadratic(table) => table.find(pack(row, col)).0,
        }
    }

    /// Physical probes one read of `(row, col)` costs: slots inspected along the
    /// quadratic probe sequence, and 1 by construction for the array (one load) and
    /// the chained table (one bucket). The software stand-in for Table 3's hardware
    /// profile.
    fn probe_length(&self, row: usize, col: usize) -> u64 {
        match self {
            ProbeMatrix::Array(_) | ProbeMatrix::Chained(_) => 1,
            ProbeMatrix::Quadratic(table) => table.find(pack(row, col)).1,
        }
    }
}

/// The paper's assembly (Figure 5) from `s` to `t` along the tree path — up from
/// `s`'s leaf to the lowest common ancestor, down to `t`'s leaf — reading one cell
/// per border pair through `cell(node, row, col)`. The via-border distance: exact
/// whenever the two vertices sit in different leaves.
fn assemble(
    gtree: &Gtree,
    s: NodeId,
    t: NodeId,
    cell: &impl Fn(NodeIndex, usize, usize) -> Cell,
) -> Weight {
    let (source_leaf, target_leaf) = (gtree.leaf_of(s), gtree.leaf_of(t));
    let hierarchy = gtree.hierarchy();
    // One min-plus step through `via`'s matrix: `dist` holds the distances to the
    // borders at matrix rows `rows`, the result those to the borders at `cols`.
    let step = |via: NodeIndex, dist: &[Weight], rows: &[usize], cols: &[usize]| -> Vec<Weight> {
        cols.iter()
            .map(|&c| {
                let through = |(&d, &r): (&Weight, &usize)| d + widen(cell(via, r, c));
                dist.iter().zip(rows).map(through).min().unwrap_or(INFINITY).min(INFINITY)
            })
            .collect()
    };
    // The borders of `node` as rows or columns of its parent's matrix, and of its own.
    let span = |node: NodeIndex| -> Vec<usize> {
        let base = hierarchy.base_in_parent(node);
        (base..base + hierarchy.borders(node).len()).collect()
    };
    let own = |node: NodeIndex| -> Vec<usize> {
        gtree.border_positions(node).iter().map(|&p| p as usize).collect()
    };

    let spos = gtree.position_in_leaf(s) as usize;
    let mut at = source_leaf;
    let mut dist: Vec<Weight> =
        (0..hierarchy.borders(at).len()).map(|b| widen(cell(at, b, spos))).collect();
    if source_leaf != target_leaf {
        // Climb to the child of the lowest common ancestor, cross it, descend.
        loop {
            let parent = hierarchy.parent(at).expect("distinct leaves share an ancestor");
            let rows = span(at);
            if gtree.is_ancestor_of(parent, target_leaf) {
                at = gtree.child_towards(parent, target_leaf);
                dist = step(parent, &dist, &rows, &span(at));
                break;
            }
            dist = step(parent, &dist, &rows, &own(parent));
            at = parent;
        }
        while at != target_leaf {
            let child = gtree.child_towards(at, target_leaf);
            dist = step(at, &dist, &own(at), &span(child));
            at = child;
        }
    }
    let tpos = gtree.position_in_leaf(t) as usize;
    let arrive = |(b, &d): (usize, &Weight)| d + widen(cell(at, b, tpos));
    dist.iter().enumerate().map(arrive).min().unwrap_or(INFINITY).min(INFINITY)
}

/// Figure 6 + Table 3: distance-matrix implementation comparison. One G-tree, its
/// cells mirrored into each layout; a workload is every query's assembly to each of
/// its k nearest objects, timed through each layout.
fn distance_matrix_study(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let series: Vec<String> = MatrixKind::all().iter().map(|k| k.name().to_string()).collect();
    let gtree = Gtree::build(&graph);
    let layouts: Vec<(MatrixKind, Vec<ProbeMatrix>)> = MatrixKind::all()
        .iter()
        .map(|&kind| (kind, gtree.matrices().iter().map(|m| ProbeMatrix::fill(kind, m)).collect()))
        .collect();

    // Each query with its k nearest objects (the real search's answer, which the
    // assembly over the tree's own cells must reproduce wherever the leaves differ).
    let workload = |objects: &ObjectSet, k: usize| -> Vec<(NodeId, Vec<NodeId>)> {
        let occ = OccurrenceList::build(&gtree, objects.vertices());
        queries
            .iter()
            .map(|&q| {
                let knn =
                    GtreeSearch::new(&gtree, &graph, q).knn(k, &occ, LeafSearchMode::Improved);
                for &(o, d) in knn.iter().filter(|&&(o, _)| gtree.leaf_of(o) != gtree.leaf_of(q)) {
                    let cell = |n: NodeIndex, r: usize, c: usize| gtree.matrix(n).get(r, c);
                    assert_eq!(assemble(&gtree, q, o, &cell), d, "assembly {q}->{o}");
                }
                (q, knn.into_iter().map(|(o, _)| o).collect())
            })
            .collect()
    };
    // µs/query of the workload's assemblies through one layout.
    let time_workload = |layout: &[ProbeMatrix], work: &[(NodeId, Vec<NodeId>)]| -> f64 {
        let cell = |n: NodeIndex, r: usize, c: usize| layout[n as usize].get(r, c);
        let start = Instant::now();
        for (q, targets) in work {
            for &o in targets {
                std::hint::black_box(assemble(&gtree, *q, o, &cell));
            }
        }
        start.elapsed().as_micros() as f64 / work.len() as f64
    };

    let objects = uniform(&graph, defaults::DENSITY, 9);
    let mut by_k = Table::new(
        "Figure 6(a): G-tree distance-matrix variants, varying k (NW, d=0.001)",
        "k",
        series.clone(),
        "µs/query",
    );
    for &k in &defaults::K_SWEEP {
        let work = workload(&objects, k);
        by_k.push(k.to_string(), layouts.iter().map(|(_, l)| time_workload(l, &work)).collect());
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 6(b): G-tree distance-matrix variants, varying density (NW, k=10)",
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let work = workload(&uniform(&graph, d, 31), defaults::K);
        by_d.push(format!("{d}"), layouts.iter().map(|(_, l)| time_workload(l, &work)).collect());
    }
    ctx.emit(by_d);

    // Table 3 analogue, in software instead of hardware cache misses: the cells the
    // workload's assemblies read, and the physical probes each layout spends on
    // exactly those reads (1 per read by construction for array and chained).
    let mut profile = Table::new(
        "Table 3: distance-matrix profile over the query workload (software counters)",
        "layout",
        vec!["cell reads".into(), "physical probes".into(), "query µs".into()],
        "count / µs",
    );
    let work = workload(&objects, defaults::K);
    for (kind, layout) in &layouts {
        let (reads, probes) = (std::cell::Cell::new(0u64), std::cell::Cell::new(0u64));
        let counted = |n: NodeIndex, r: usize, c: usize| {
            reads.set(reads.get() + 1);
            probes.set(probes.get() + layout[n as usize].probe_length(r, c));
            layout[n as usize].get(r, c)
        };
        for (q, targets) in &work {
            for &o in targets {
                std::hint::black_box(assemble(&gtree, *q, o, &counted));
            }
        }
        let micros = time_workload(layout, &work);
        profile.push(kind.name(), vec![reads.get() as f64, probes.get() as f64, micros]);
    }
    ctx.emit(profile);
}

/// Figure 7: INE implementation ablation.
fn ine_ablation(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let series: Vec<String> = IneVariant::all().iter().map(|v| v.name().to_string()).collect();
    let searches: Vec<(IneVariant, IneSearch)> =
        IneVariant::all().iter().map(|&v| (v, IneSearch::with_variant(&graph, v))).collect();

    let time_workload = |search: &IneSearch, objects: &rnknn_objects::ObjectSet, k: usize| -> f64 {
        let start = Instant::now();
        for &q in &queries {
            std::hint::black_box(search.knn(q, k, objects));
        }
        start.elapsed().as_micros() as f64 / queries.len() as f64
    };

    let mut by_k = Table::new(
        "Figure 7(a): INE implementation ablation, varying k (NW, d=0.001)",
        "k",
        series.clone(),
        "µs/query",
    );
    let objects = uniform(&graph, defaults::DENSITY, 21);
    for &k in &defaults::K_SWEEP {
        by_k.push(
            k.to_string(),
            searches.iter().map(|(_, s)| time_workload(s, &objects, k)).collect(),
        );
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 7(b): INE implementation ablation, varying density (NW, k=10)",
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 23);
        by_d.push(
            format!("{d}"),
            searches.iter().map(|(_, s)| time_workload(s, &objects, defaults::K)).collect(),
        );
    }
    ctx.emit(by_d);
}

/// Figure 8 (distance) / Figure 26 (time): road-network index size and build time vs |V|.
fn index_costs(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let presets = [
        DatasetPreset::DE,
        DatasetPreset::VT,
        DatasetPreset::ME,
        DatasetPreset::CO,
        DatasetPreset::NW,
    ];
    let mut size = Table::new(
        &format!(
            "{figure}(a): road-network index size vs |V| ({kind:?}; \
             ROAD's Rnets are the G-tree's hierarchy, counted under Gtree)"
        ),
        "network",
        vec![
            "INE (graph)".into(),
            "Gtree".into(),
            "ROAD".into(),
            "PHL".into(),
            "DisBrw(SILC)".into(),
            "CH".into(),
        ],
        "MB",
    );
    let mut time = Table::new(
        &format!(
            "{figure}(b): road-network index construction time vs |V| ({kind:?}; \
             ROAD is derived from the built G-tree)"
        ),
        "network",
        vec![
            "Gtree".into(),
            "ROAD (derive)".into(),
            "PHL".into(),
            "DisBrw(SILC)".into(),
            "CH".into(),
        ],
        "ms",
    );
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    for preset in presets {
        let net = preset.generate(ctx.scale);
        let graph = net.graph(kind);
        let n = graph.num_vertices();

        let start = Instant::now();
        let gtree = Gtree::build(&graph);
        let gtree_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let road = RoadIndex::from_gtree(&graph, &gtree);
        let road_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let ch = rnknn::ch::ContractionHierarchy::build(&graph);
        let ch_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let phl = rnknn::phl::HubLabels::from_ch(&graph, &ch);
        let phl_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let silc =
            SilcIndex::try_build(&graph, &SilcConfig { max_vertices: 8_000, ..Default::default() });
        let silc_ms = start.elapsed().as_secs_f64() * 1e3;

        size.push(
            format!("{} ({n})", preset.name()),
            vec![
                mb(graph.memory_bytes()),
                mb(gtree.memory_bytes()),
                mb(road.memory_bytes()),
                phl.as_ref().map(|p| mb(p.memory_bytes())).unwrap_or(f64::NAN),
                silc.as_ref().map(|s| mb(s.memory_bytes())).unwrap_or(f64::NAN),
                mb(ch.memory_bytes()),
            ],
        );
        time.push(
            format!("{} ({n})", preset.name()),
            vec![
                gtree_ms,
                road_ms,
                if phl.is_some() { phl_ms } else { f64::NAN },
                if silc.is_some() { silc_ms } else { f64::NAN },
                ch_ms,
            ],
        );
    }
    ctx.emit(size);
    ctx.emit(time);
}

/// Figure 9: query time vs |V| plus the G-tree path cost / ROAD bypass counters.
fn network_size_study(ctx: &mut Ctx) {
    let presets = [
        DatasetPreset::DE,
        DatasetPreset::ME,
        DatasetPreset::NW,
        DatasetPreset::CA,
        DatasetPreset::US,
    ];
    sweep_networks(
        ctx,
        "Figure 9(a): query time vs |V| (d=0.001, k=10)",
        &presets,
        EdgeWeightKind::Distance,
        &MAIN_METHODS,
    );

    let mut stats_table = Table::new(
        "Figure 9(b): G-tree path cost and ROAD vertices bypassed vs |V|",
        "network",
        vec![
            "Gtree border comps".into(),
            "IER-Gt border comps".into(),
            "Gtree cells".into(),
            "IER-Gt cells".into(),
            "Gtree skip %".into(),
            "IER-Gt skip %".into(),
            "ROAD vert. bypassed".into(),
        ],
        "count/query; skip % = share of source rows dominated by an entry border",
    );
    // Per method: border computations, matrix cells, entry rows, dominated rows.
    let add = |sum: &mut [u64; 4], s: GtreeSearchStats| {
        let counts = [s.border_computations, s.matrix_cells, s.entry_rows, s.dominated_rows];
        sum.iter_mut().zip(counts).for_each(|(total, c)| *total += c);
    };
    for preset in presets {
        let queries = ctx.testbed(preset, EdgeWeightKind::Distance).queries.clone();
        let graph = ctx.testbed(preset, EdgeWeightKind::Distance).graph().clone();
        let gtree = Gtree::build(&graph);
        let road = RoadIndex::from_gtree(&graph, &gtree);
        let objects = uniform(&graph, defaults::DENSITY, 7);
        let occ = OccurrenceList::build(&gtree, objects.vertices());
        let rtree = ObjectRTree::build(&graph, &objects);

        let (mut gtree_sum, mut ier_sum) = ([0u64; 4], [0u64; 4]);
        let mut bypassed = 0usize;
        for &q in &queries {
            let mut search = GtreeSearch::new(&gtree, &graph, q);
            search.knn(defaults::K, &occ, LeafSearchMode::Improved);
            add(&mut gtree_sum, search.stats);

            let mut ier = IerSearch::new(&graph, GtreeDistanceOracle::new(&gtree, &graph, q));
            ier.knn(q, defaults::K, &rtree);
            add(&mut ier_sum, ier.oracle().stats());

            let (_, stats) = RoadKnn::new(&graph, &road).knn_with_stats(q, defaults::K, &occ);
            bypassed += stats.vertices_bypassed;
        }
        let qn = queries.len() as f64;
        let skipped = |[_, _, entry, dominated]: [u64; 4]| {
            100.0 * dominated as f64 / (entry + dominated).max(1) as f64
        };
        stats_table.push(
            format!("{} ({})", preset.name(), graph.num_vertices()),
            vec![
                gtree_sum[0] as f64 / qn,
                ier_sum[0] as f64 / qn,
                gtree_sum[1] as f64 / qn,
                ier_sum[1] as f64 / qn,
                skipped(gtree_sum),
                skipped(ier_sum),
                bypassed as f64 / qn,
            ],
        );
    }
    ctx.emit(stats_table);
}

/// Figure 12 / Figure 24(d): clustered object sets.
fn clustered_objects(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let mut by_clusters = Table::new(
        &format!("{figure}(a): varying number of clusters (NW, k=10, {kind:?})"),
        "clusters",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &clusters in &[1usize, 10, 100, 1000] {
        let objects = clustered(&graph, clusters, 5, 3);
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.set_objects(objects);
        let values: Vec<f64> =
            MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        by_clusters.push(clusters.to_string(), values);
    }
    ctx.emit(by_clusters);

    let cluster_count = ((graph.num_vertices() as f64 * defaults::DENSITY).ceil() as usize).max(2);
    let objects = clustered(&graph, cluster_count, 5, 9);
    {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.set_objects(objects);
    }
    let mut by_k = Table::new(
        &format!("{figure}(b): clustered objects, varying k (NW, {kind:?})"),
        "k",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        let values: Vec<f64> = MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        by_k.push(k.to_string(), values);
    }
    ctx.emit(by_k);
}

/// Figure 13 / Figure 25: query time per real-world (POI-like) object set.
fn poi_study(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    for (preset, methods) in
        [(DatasetPreset::NW, &MAIN_METHODS[..]), (DatasetPreset::US, &LARGE_METHODS[..])]
    {
        let graph = ctx.testbed(preset, kind).graph().clone();
        let pois = PoiSets::generate(&graph, 17);
        let mut table = Table::new(
            &format!("{figure}: POI-like object sets on {} ({kind:?}, k=10)", preset.name()),
            "category",
            methods.iter().map(|m| m.name().to_string()).collect(),
            "µs/query",
        );
        for (cat, set) in pois.iter() {
            let bed = ctx.testbed(preset, kind);
            bed.set_objects(set.clone());
            let values: Vec<f64> =
                methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
            table.push(cat.name(), values);
        }
        ctx.emit(table);
    }
}

/// Figure 14 / Figure 17(d) / Figure 24(c): minimum object distance sets.
fn min_distance_study(ctx: &mut Ctx, preset: DatasetPreset, kind: EdgeWeightKind, figure: &str) {
    let methods: &[Method] =
        if preset == DatasetPreset::US { &LARGE_METHODS } else { &MAIN_METHODS };
    let graph = ctx.testbed(preset, kind).graph().clone();
    let m = 6;
    let bundle = min_object_distance(&graph, defaults::DENSITY, m, DEFAULT_QUERIES, 3);
    let mut table = Table::new(
        &format!("{figure}: varying minimum object distance ({}, {kind:?}, k=10)", preset.name()),
        "set",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    let original_queries = ctx.testbed(preset, kind).queries.clone();
    for (i, set) in bundle.sets.iter().enumerate() {
        if set.is_empty() {
            continue;
        }
        let bed = ctx.testbed(preset, kind);
        bed.queries = bundle.query_vertices.clone();
        bed.set_objects(set.clone());
        let values: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("R{}", i + 1), values);
    }
    ctx.testbed(preset, kind).queries = original_queries;
    ctx.emit(table);
}

/// Figure 15 / Figure 27: varying k on the hospital-like and fast-food-like POI sets.
fn poi_k_study(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let pois = PoiSets::generate(&graph, 29);
    for category in [rnknn_objects::PoiCategory::Hospitals, rnknn_objects::PoiCategory::FastFood] {
        let set = pois.get(category).clone();
        {
            let bed = ctx.testbed(DatasetPreset::NW, kind);
            bed.set_objects(set);
        }
        let mut table = Table::new(
            &format!("{figure}: varying k for {} (NW, {kind:?})", category.name()),
            "k",
            MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
            "µs/query",
        );
        for &k in &defaults::K_SWEEP {
            let bed = ctx.testbed(DatasetPreset::NW, kind);
            let values: Vec<f64> =
                MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
            table.push(k.to_string(), values);
        }
        ctx.emit(table);
    }
}

/// Figure 16: the original G-tree study's settings (d=0.01, CO network).
fn original_settings(ctx: &mut Ctx) {
    sweep_k(
        ctx,
        "Figure 16(a): original settings, varying k (CO, d=0.01)",
        DatasetPreset::CO,
        EdgeWeightKind::Distance,
        &MAIN_METHODS,
        0.01,
    );
    let presets = [DatasetPreset::DE, DatasetPreset::ME, DatasetPreset::NW, DatasetPreset::CA];
    let mut table = Table::new(
        "Figure 16(b): original settings, varying |V| (d=0.01, k=10)",
        "|V|",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &p in &presets {
        let bed = ctx.testbed(p, EdgeWeightKind::Distance);
        bed.set_uniform_objects(0.01, 7);
        let n = bed.graph().num_vertices();
        let values: Vec<f64> =
            MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("{} ({n})", p.name()), values);
    }
    ctx.emit(table);
}

/// Figure 18: object-index size and construction time vs density. The paper's
/// G-tree occurrence list and ROAD association directory are one structure here
/// (an Rnet is a G-tree node), so they share one column, "OccList (G-tree + ROAD)".
/// The CH target directory's build fills every object's label.
fn object_index_study(ctx: &mut Ctx) {
    let graph = ctx.testbed(DatasetPreset::US, EdgeWeightKind::Distance).graph().clone();
    let gtree = Gtree::build(&graph);
    let ch = rnknn::ch::ContractionHierarchy::build(&graph);
    let mut size = Table::new(
        "Figure 18(a): object index size vs density (US)",
        "density",
        vec![
            "objects (INE)".into(),
            "OccList (G-tree + ROAD)".into(),
            "IER/DB R-tree".into(),
            "CH tgt labels".into(),
        ],
        "KB",
    );
    let mut time = Table::new(
        "Figure 18(b): object index construction time vs density (US)",
        "density",
        vec!["OccList (G-tree + ROAD)".into(), "IER/DB R-tree".into(), "CH tgt labels".into()],
        "µs",
    );
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 41);
        let (_, rtree_cost) = build_rtree(&graph, &objects);
        let (_, occ_cost) = build_occurrence_list(&gtree, &objects);
        let start = Instant::now();
        let targets = ChTargetDirectory::build(&ch, objects.vertices());
        let targets_micros = start.elapsed().as_micros();
        size.push(
            format!("{d}"),
            vec![
                kb(objects.memory_bytes()),
                kb(occ_cost.bytes),
                kb(rtree_cost.bytes),
                kb(targets.memory_bytes()),
            ],
        );
        time.push(
            format!("{d}"),
            vec![
                occ_cost.build_micros as f64,
                rtree_cost.build_micros as f64,
                targets_micros as f64,
            ],
        );
    }
    ctx.emit(size);
    ctx.emit(time);
}

/// Figure 19: DisBrw (object hierarchy) vs DB-ENN.
fn disbrw_variants(ctx: &mut Ctx) {
    if !ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).engine.supports(Method::DisBrw) {
        eprintln!("[fig19] SILC unavailable at this scale; skipping");
        return;
    }
    let mut by_k = Table::new(
        "Figure 19(a): DisBrw vs DB-ENN, varying k (NW, d=0.001)",
        "k",
        vec!["DisBrw".into(), "DB-ENN".into()],
        "µs/query",
    );
    ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance)
        .set_uniform_objects(defaults::DENSITY, 3);
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        let oh = bed.avg_query_micros(Method::DisBrwObjectHierarchy, k);
        let enn = bed.avg_query_micros(Method::DisBrw, k);
        by_k.push(k.to_string(), vec![oh, enn]);
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 19(b): DisBrw vs DB-ENN, varying density (NW, k=10)",
        "density",
        vec!["DisBrw".into(), "DB-ENN".into()],
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        bed.set_uniform_objects(d, 5);
        let oh = bed.avg_query_micros(Method::DisBrwObjectHierarchy, defaults::K);
        let enn = bed.avg_query_micros(Method::DisBrw, defaults::K);
        by_d.push(format!("{d}"), vec![oh, enn]);
    }
    ctx.emit(by_d);
}

/// Figures 20/21: the degree-2 chain optimisation for DisBrw refinement.
fn chain_optimisation(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::DE, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::DE, EdgeWeightKind::Distance).graph().clone();
    let silc = match SilcIndex::try_build(&graph, &SilcConfig::default()) {
        Some(s) => s,
        None => {
            eprintln!("[fig20] SILC unavailable; skipping");
            return;
        }
    };
    let objects = uniform(&graph, defaults::DENSITY, 3);
    let rtree = ObjectRTree::build(&graph, &objects);
    let mut table = Table::new(
        "Figure 20/21: degree-2 chain optimisation for DisBrw (DE-like network)",
        "k",
        vec!["DisBrw".into(), "OptDisBrw".into(), "lookups saved %".into()],
        "µs/query (and %)",
    );
    for &k in &defaults::K_SWEEP {
        let plain = rnknn::disbrw::DisBrwSearch::new(&graph, &silc, None);
        let start = Instant::now();
        for &q in &queries {
            std::hint::black_box(plain.knn(q, k, &rtree, &objects));
        }
        let plain_micros = start.elapsed().as_micros() as f64 / queries.len() as f64;
        let opt = rnknn::disbrw::DisBrwSearch::new(&graph, &silc, Some(silc.chains()));
        let (mut lookups, mut skips) = (0, 0);
        let start = Instant::now();
        for &q in &queries {
            let (result, stats) = opt.knn_with_stats(q, k, &rtree, &objects);
            std::hint::black_box(result);
            lookups += stats.quadtree_lookups;
            skips += stats.chain_skips;
        }
        let opt_micros = start.elapsed().as_micros() as f64 / queries.len() as f64;
        let saved = 100.0 * skips as f64 / (lookups + skips).max(1) as f64;
        table.push(k.to_string(), vec![plain_micros, opt_micros, saved]);
    }
    ctx.emit(table);
}

/// Figure 22: improved vs original G-tree leaf search — per mode and `k`, the time
/// per query beside the work behind it: source-leaf vertices settled and matrix cells
/// read (the tree's and the leaf matrix's).
fn leaf_search_study(ctx: &mut Ctx) {
    for preset in [DatasetPreset::NW, DatasetPreset::US] {
        let queries = ctx.testbed(preset, EdgeWeightKind::Distance).queries.clone();
        let graph = ctx.testbed(preset, EdgeWeightKind::Distance).graph().clone();
        let gtree = Gtree::build(&graph);
        let series: Vec<String> = [1, 10]
            .iter()
            .flat_map(|k| ["before", "after"].map(|m| format!("k={k} {m}")))
            .collect();
        let mut tables =
            ["µs/query", "leaf vertices settled/query", "matrix cells/query"].map(|unit| {
                let name = preset.name();
                let title = format!(
                    "Figure 22: G-tree leaf search improvement, varying density ({name}): {unit}"
                );
                Table::new(&title, "density", series.clone(), unit)
            });
        for &d in &defaults::DENSITY_SWEEP {
            let objects = uniform(&graph, d, 13);
            let occ = OccurrenceList::build(&gtree, objects.vertices());
            let mut values: [Vec<f64>; 3] = Default::default();
            for k in [1usize, 10] {
                for mode in [LeafSearchMode::Original, LeafSearchMode::Improved] {
                    let (mut settled, mut cells) = (0, 0);
                    let start = Instant::now();
                    for &q in &queries {
                        let mut search = GtreeSearch::new(&gtree, &graph, q);
                        std::hint::black_box(search.knn(k, &occ, mode));
                        settled += search.stats.leaf_vertices_settled;
                        cells += search.stats.matrix_cells;
                    }
                    let micros = start.elapsed().as_micros() as f64;
                    for (column, total) in
                        values.iter_mut().zip([micros, settled as f64, cells as f64])
                    {
                        column.push(total / queries.len() as f64);
                    }
                }
            }
            for (table, row) in tables.iter_mut().zip(values) {
                table.push(format!("{d}"), row);
            }
        }
        for table in tables {
            ctx.emit(table);
        }
    }
}

/// Table 5: ranking of the methods under the paper's criteria, derived from measured
/// query times on the default workload.
fn ranking(ctx: &mut Ctx) {
    let methods = MAIN_METHODS;
    let mut table = Table::new(
        "Table 5 (derived): rank by average query time under different settings (1 = fastest)",
        "criterion",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "rank",
    );
    fn add_ranked(label: &str, times: Vec<f64>, table: &mut Table) {
        let mut order: Vec<usize> = (0..times.len()).collect();
        order
            .sort_by(|&a, &b| times[a].partial_cmp(&times[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut ranks = vec![f64::NAN; times.len()];
        let mut rank = 1.0;
        for &i in &order {
            if times[i].is_nan() {
                continue;
            }
            ranks[i] = rank;
            rank += 1.0;
        }
        table.push(label, ranks);
    }
    {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        bed.set_uniform_objects(defaults::DENSITY, 3);
        let defaults_times: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("default settings", defaults_times, &mut table);
        let small_k: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, 1)).collect();
        add_ranked("small k", small_k, &mut table);
        let large_k: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, 50)).collect();
        add_ranked("large k", large_k, &mut table);
        bed.set_uniform_objects(0.0001, 9);
        let low: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("low density", low, &mut table);
        bed.set_uniform_objects(0.1, 9);
        let high: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("high density", high, &mut table);
    }
    ctx.emit(table);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

fn run(ctx: &mut Ctx, name: &str) {
    match name {
        "table1" => table1(ctx),
        "table2" => table2(ctx),
        "fig4" => ier_variants(ctx, EdgeWeightKind::Distance, "Figure 4"),
        "fig6" | "table3" => distance_matrix_study(ctx),
        "fig7" => ine_ablation(ctx),
        "fig8" => index_costs(ctx, EdgeWeightKind::Distance, "Figure 8"),
        "fig9" => network_size_study(ctx),
        "fig10" => {
            sweep_k(
                ctx,
                "Figure 10(a): varying k (NW, d=0.001)",
                DatasetPreset::NW,
                EdgeWeightKind::Distance,
                &MAIN_METHODS,
                defaults::DENSITY,
            );
            sweep_k(
                ctx,
                "Figure 10(b): varying k (US, d=0.001)",
                DatasetPreset::US,
                EdgeWeightKind::Distance,
                &LARGE_METHODS,
                defaults::DENSITY,
            );
        }
        "fig11" => {
            sweep_density(
                ctx,
                "Figure 11(a): varying density (NW, k=10)",
                DatasetPreset::NW,
                EdgeWeightKind::Distance,
                &MAIN_METHODS,
                defaults::K,
            );
            sweep_density(
                ctx,
                "Figure 11(b): varying density (US, k=10)",
                DatasetPreset::US,
                EdgeWeightKind::Distance,
                &LARGE_METHODS,
                defaults::K,
            );
        }
        "fig12" => clustered_objects(ctx, EdgeWeightKind::Distance, "Figure 12"),
        "fig13" => poi_study(ctx, EdgeWeightKind::Distance, "Figure 13"),
        "fig14" => {
            min_distance_study(ctx, DatasetPreset::NW, EdgeWeightKind::Distance, "Figure 14(a)");
            min_distance_study(ctx, DatasetPreset::US, EdgeWeightKind::Distance, "Figure 14(b)");
        }
        "fig15" => poi_k_study(ctx, EdgeWeightKind::Distance, "Figure 15"),
        "fig16" => original_settings(ctx),
        "fig17" => {
            sweep_k(
                ctx,
                "Figure 17(a): travel time, varying k (US)",
                DatasetPreset::US,
                EdgeWeightKind::Time,
                &LARGE_METHODS,
                defaults::DENSITY,
            );
            sweep_density(
                ctx,
                "Figure 17(b): travel time, varying density (US)",
                DatasetPreset::US,
                EdgeWeightKind::Time,
                &LARGE_METHODS,
                defaults::K,
            );
            sweep_networks(
                ctx,
                "Figure 17(c): travel time, varying |V|",
                &[DatasetPreset::DE, DatasetPreset::ME, DatasetPreset::NW, DatasetPreset::CA],
                EdgeWeightKind::Time,
                &LARGE_METHODS,
            );
            min_distance_study(ctx, DatasetPreset::US, EdgeWeightKind::Time, "Figure 17(d)");
        }
        "fig18" => object_index_study(ctx),
        "fig19" => disbrw_variants(ctx),
        "fig20" | "fig21" => chain_optimisation(ctx),
        "fig22" => leaf_search_study(ctx),
        "fig23" => ier_variants(ctx, EdgeWeightKind::Time, "Figure 23"),
        "fig24" => {
            sweep_k(
                ctx,
                "Figure 24(a): travel time, varying k (NW)",
                DatasetPreset::NW,
                EdgeWeightKind::Time,
                &MAIN_METHODS,
                defaults::DENSITY,
            );
            sweep_density(
                ctx,
                "Figure 24(b): travel time, varying density (NW)",
                DatasetPreset::NW,
                EdgeWeightKind::Time,
                &MAIN_METHODS,
                defaults::K,
            );
            min_distance_study(ctx, DatasetPreset::NW, EdgeWeightKind::Time, "Figure 24(c)");
            clustered_objects(ctx, EdgeWeightKind::Time, "Figure 24(d)");
        }
        "fig25" => poi_study(ctx, EdgeWeightKind::Time, "Figure 25"),
        "fig26" => index_costs(ctx, EdgeWeightKind::Time, "Figure 26"),
        "fig27" => poi_k_study(ctx, EdgeWeightKind::Time, "Figure 27"),
        "table5" => ranking(ctx),
        other => unreachable!("main validates names, got '{other}'"),
    }
}

const ALL: [&str; 25] = [
    "table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig22", "fig23", "fig24",
    "fig25", "fig26", "fig27", "table5",
];

/// Names `run` accepts besides [`ALL`]: the sweep itself and two figures that
/// share an experiment with a listed one (`fig6`, `fig20`).
const EXTRA: [&str; 3] = ["all", "table3", "fig21"];

const USAGE: &str =
    "usage: experiments [--scale S] [--queries N] [--save DIR] [--load DIR] <all | table1 | fig4 | ...>";

fn parse() -> Result<(Ctx, Vec<String>), String> {
    let args =
        cli::parse(std::env::args().skip(1), &["--scale", "--queries", "--save", "--load"], &[])?;
    let io = rnknn_bench::artifacts::ArtifactIo {
        save_dir: args.value("--save")?,
        load_dir: args.value("--load")?,
    };
    let ctx = Ctx::new(
        args.value("--scale")?.unwrap_or(DEFAULT_SCALE),
        args.value("--queries")?.unwrap_or(DEFAULT_QUERIES),
        io,
    );
    let accepted: Vec<&str> = ALL.iter().chain(&EXTRA).copied().collect();
    Ok((ctx, args.positionals_in(&accepted)?.to_vec()))
}

fn main() {
    let (mut ctx, selected) = parse().unwrap_or_else(|e| {
        cli::exit_with_usage(&format!("{USAGE}\nexperiments: {}", ALL.join(" ")), &e)
    });
    let run_all = selected.iter().any(|s| s == "all");
    let list: Vec<&str> =
        if run_all { ALL.to_vec() } else { selected.iter().map(|s| s.as_str()).collect() };

    let start = Instant::now();
    for name in &list {
        eprintln!("=== running {name} ===");
        run(&mut ctx, name);
    }
    eprintln!("total experiment time: {:.1}s", start.elapsed().as_secs_f64());

    if run_all {
        let mut doc = String::from("# Experiment results (generated by `experiments all`)\n\n");
        doc.push_str(&format!(
            "Scale factor {}, {} queries per measurement.\n\n```\n",
            ctx.scale, ctx.queries
        ));
        for table in &ctx.collected {
            doc.push_str(&table.render());
        }
        doc.push_str("```\n");
        if let Err(e) = std::fs::write("experiments_results.md", doc) {
            eprintln!("could not write experiments_results.md: {e}");
        } else {
            eprintln!("wrote experiments_results.md");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix with every cell distinct, mirrored into `kind`.
    fn sample(rows: usize, cols: usize) -> DistanceMatrix {
        let mut m = DistanceMatrix::new(rows, cols, 999);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, ((r * 31 + c * 17) % 100 + r * 100) as Cell);
            }
        }
        m
    }

    fn exercise(kind: MatrixKind) {
        let m = sample(7, 5);
        let layout = ProbeMatrix::fill(kind, &m);
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(layout.get(r, c), m.get(r, c), "{kind:?} ({r},{c})");
                assert!(layout.probe_length(r, c) >= 1);
            }
        }
    }

    #[test]
    fn chained_hash_matrix_behaviour() {
        exercise(MatrixKind::ChainedHashing);
    }

    #[test]
    fn quadratic_probing_matrix_behaviour() {
        exercise(MatrixKind::QuadraticProbing);
    }

    #[test]
    fn variants_agree_cell_by_cell() {
        let m = sample(9, 9);
        let layouts = MatrixKind::all().map(|kind| ProbeMatrix::fill(kind, &m));
        for r in 0..9 {
            for c in 0..9 {
                assert!(layouts.iter().all(|l| l.get(r, c) == m.get(r, c)), "({r},{c})");
            }
        }
    }

    #[test]
    fn probe_counts_reflect_layout_costs() {
        // The array and the chained table cost exactly one probe per read; quadratic
        // probing costs at least one, and more than one somewhere once the table
        // holds colliding keys.
        let m = DistanceMatrix::new(16, 16, 5);
        let [chained, quadratic, array] = MatrixKind::all().map(|kind| ProbeMatrix::fill(kind, &m));
        let mut quadratic_probes = 0;
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(array.probe_length(r, c), 1);
                assert_eq!(chained.probe_length(r, c), 1);
                assert!(quadratic.probe_length(r, c) >= 1);
                quadratic_probes += quadratic.probe_length(r, c);
            }
        }
        assert!(quadratic_probes > 256, "no collision among 256 keys in 512 slots?");
    }

    #[test]
    fn names_and_kinds() {
        assert_eq!(MatrixKind::Array.name(), "Array");
        assert_eq!(MatrixKind::all().len(), 3);
    }
}
