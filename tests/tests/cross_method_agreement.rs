//! Cross-method integration tests: every kNN method must return the Dijkstra ground
//! truth on both travel-distance and travel-time graphs, across object densities and
//! object distributions.

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::matches_ground_truth;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_gtree::GtreeConfig;
use rnknn_objects::{clustered, min_object_distance, uniform, PoiSets};

fn engine_for(kind: EdgeWeightKind, n: usize, seed: u64) -> Engine {
    let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
    let graph = net.graph(kind);
    let config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 64, ..Default::default() },
        ..Default::default()
    };
    Engine::build(graph, &config)
}

fn check_engine(engine: &Engine, queries: &[NodeId], ks: &[usize]) {
    let objects = engine.objects().expect("objects injected").clone();
    for &q in queries {
        for &k in ks {
            for method in Method::ALL {
                if !engine.supports(method) {
                    continue;
                }
                let answer = engine.query(method, q, k).expect("supported method").result;
                assert!(
                    matches_ground_truth(engine.graph(), q, k, &objects, &answer),
                    "{} wrong for q={q} k={k} on {:?} ({} objects)",
                    method.name(),
                    engine.graph().kind(),
                    objects.len(),
                );
            }
        }
    }
}

#[test]
fn all_methods_agree_on_travel_distance_graphs() {
    let mut engine = engine_for(EdgeWeightKind::Distance, 1_200, 101);
    let n = engine.graph().num_vertices() as NodeId;
    for density in [0.001, 0.01, 0.1] {
        let objects = uniform(engine.graph(), density, 7);
        engine.set_objects(objects);
        check_engine(&engine, &[1, n / 2, n - 4], &[1, 5, 10]);
    }
}

#[test]
fn all_methods_agree_on_travel_time_graphs() {
    let mut engine = engine_for(EdgeWeightKind::Time, 1_000, 55);
    let n = engine.graph().num_vertices() as NodeId;
    let objects = uniform(engine.graph(), 0.01, 13);
    engine.set_objects(objects);
    check_engine(&engine, &[3, n / 3, n - 9], &[1, 10]);
}

#[test]
fn all_methods_agree_on_clustered_objects() {
    let mut engine = engine_for(EdgeWeightKind::Distance, 900, 21);
    let n = engine.graph().num_vertices() as NodeId;
    let objects = clustered(engine.graph(), 12, 5, 5);
    engine.set_objects(objects);
    check_engine(&engine, &[7, n / 2], &[5, 25]);
}

#[test]
fn all_methods_agree_on_minimum_distance_objects() {
    let mut engine = engine_for(EdgeWeightKind::Distance, 900, 33);
    let bundle = min_object_distance(engine.graph(), 0.01, 3, 4, 17);
    let queries = bundle.query_vertices.clone();
    for set in bundle.sets {
        if set.is_empty() {
            continue;
        }
        engine.set_objects(set);
        check_engine(&engine, &queries[..2.min(queries.len())], &[5]);
    }
}

#[test]
fn all_methods_agree_on_poi_like_sets() {
    let mut engine = engine_for(EdgeWeightKind::Distance, 1_500, 77);
    let n = engine.graph().num_vertices() as NodeId;
    let pois = PoiSets::generate(engine.graph(), 3);
    for (category, set) in pois.iter() {
        engine.set_objects(set.clone());
        let k = 5.min(set.len());
        for method in [Method::Gtree, Method::Road, Method::IerGtree, Method::IerPhl] {
            if !engine.supports(method) {
                continue;
            }
            let answer = engine.query(method, n / 2, k).expect("supported method").result;
            assert!(
                matches_ground_truth(engine.graph(), n / 2, k, set, &answer),
                "{} wrong on POI category {}",
                method.name(),
                category.name()
            );
        }
    }
}

#[test]
fn edge_cases_are_consistent_across_methods() {
    let mut engine = engine_for(EdgeWeightKind::Distance, 600, 3);
    let objects = uniform(engine.graph(), 0.005, 2);
    let count = objects.len();
    engine.set_objects(objects);
    // k exceeding |O| returns every object, k = 1 returns the single nearest.
    for method in Method::ALL {
        if !engine.supports(method) {
            continue;
        }
        let all = engine.query(method, 11, count + 10).expect("supported").result;
        assert_eq!(all.len(), count, "{}", method.name());
        let one = engine.query(method, 11, 1).expect("supported").result;
        assert_eq!(one.len(), 1, "{}", method.name());
    }
    // A query located on an object returns itself at distance zero.
    let object_vertex = engine.objects().unwrap().vertices()[0];
    for method in Method::ALL {
        if !engine.supports(method) {
            continue;
        }
        let got = engine.query(method, object_vertex, 1).expect("supported").result;
        assert_eq!(got[0].1, 0, "{}", method.name());
    }
}
