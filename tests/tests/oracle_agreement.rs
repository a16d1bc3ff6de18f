//! All shortest-path oracles must agree with Dijkstra on random vertex pairs — the
//! foundation of the IER comparison (Figure 4).

use rnknn_ch::ContractionHierarchy;
use rnknn_graph::generator::{DatasetPreset, GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_gtree::{Gtree, GtreeConfig, GtreeSearch};
use rnknn_pathfinding::{astar_distance, dijkstra};
use rnknn_phl::HubLabels;
use rnknn_silc::SilcIndex;
use rnknn_tnr::TransitNodeRouting;

#[test]
fn every_oracle_agrees_with_dijkstra_on_both_weight_kinds() {
    for (kind, seed) in [(EdgeWeightKind::Distance, 5u64), (EdgeWeightKind::Time, 6u64)] {
        let net = RoadNetwork::generate(&GeneratorConfig::new(1_200, seed));
        let graph = net.graph(kind);
        let n = graph.num_vertices() as NodeId;

        let ch = ContractionHierarchy::build(&graph);
        let phl = HubLabels::from_ch(&graph, &ch).expect("within budget");
        let tnr = TransitNodeRouting::from_ch(&graph, &ch);
        let gtree = Gtree::build_with_config(
            &graph,
            GtreeConfig { leaf_capacity: 96, ..Default::default() },
        );
        let silc = SilcIndex::build(&graph);
        let bound = graph.euclidean_bound();

        for i in 0..50u32 {
            let s = (i * 883) % n;
            let t = (i * 2_741 + 97) % n;
            let truth = dijkstra::distance(&graph, s, t);
            assert_eq!(astar_distance(&graph, &bound, s, t), truth, "astar {s}->{t}");
            assert_eq!(ch.distance(s, t), truth, "ch {s}->{t}");
            assert_eq!(phl.distance(s, t), truth, "phl {s}->{t}");
            assert_eq!(tnr.distance(&ch, s, t), truth, "tnr {s}->{t}");
            assert_eq!(GtreeSearch::new(&gtree, &graph, s).distance_to(t), truth, "gtree {s}->{t}");
            assert_eq!(silc.distance(&graph, s, t, Some(silc.chains())), truth, "silc {s}->{t}");
        }
    }
}

#[test]
fn oracles_work_on_a_dataset_preset() {
    // Smallest preset at reduced scale: exercises the preset plumbing end to end.
    let net = DatasetPreset::DE.generate(0.4);
    let graph = net.graph(EdgeWeightKind::Distance);
    let n = graph.num_vertices() as NodeId;
    let ch = ContractionHierarchy::build(&graph);
    let gtree = Gtree::build(&graph);
    for i in 0..15u32 {
        let s = (i * 419) % n;
        let t = (i * 1_531 + 11) % n;
        let truth = dijkstra::distance(&graph, s, t);
        assert_eq!(ch.distance(s, t), truth);
        assert_eq!(GtreeSearch::new(&gtree, &graph, s).distance_to(t), truth);
    }
}
