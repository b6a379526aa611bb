//! Sequential greedy MIS — the ground-truth baseline.

use cc_graph::csr::CsrGraph;

use crate::MisResult;

/// Computes an MIS by scanning nodes in id order and adding every node none
/// of whose neighbors has been added.
pub fn greedy_mis(graph: &CsrGraph) -> MisResult {
    let mut in_set = vec![false; graph.node_count()];
    let mut blocked = vec![false; graph.node_count()];
    for v in graph.nodes() {
        if blocked[v.index()] {
            continue;
        }
        in_set[v.index()] = true;
        for u in graph.neighbors(v) {
            blocked[u.index()] = true;
        }
    }
    MisResult { in_set, phases: 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mis;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::generators;

    #[test]
    fn greedy_on_complete_graph_picks_one_node() {
        let g = GraphBuilder::complete(6).build();
        let r = greedy_mis(&g);
        assert_eq!(r.size(), 1);
        verify_mis(&g, &r.in_set).unwrap();
    }

    #[test]
    fn greedy_on_empty_graph_picks_everything() {
        let g = CsrGraph::empty(5);
        let r = greedy_mis(&g);
        assert_eq!(r.size(), 5);
        verify_mis(&g, &r.in_set).unwrap();
    }

    #[test]
    fn greedy_on_random_graphs_is_valid() {
        for seed in 0..5 {
            let g = generators::gnp(80, 0.1, seed).unwrap();
            let r = greedy_mis(&g);
            verify_mis(&g, &r.in_set).unwrap();
        }
    }

    #[test]
    fn greedy_on_path_picks_both_ends() {
        let g = GraphBuilder::path(3).build();
        let by_id = greedy_mis(&g);
        assert_eq!(by_id.size(), 2); // {0, 2}
        verify_mis(&g, &by_id.in_set).unwrap();
    }
}
