//! Graphviz rendering of heap structures — the inspection tool behind the
//! `union_anatomy --dot` example and handy in test failure triage.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::heap::ParBinomialHeap;
use crate::lazy::LazyBinomialHeap;

/// Render the heap as a Graphviz `digraph`: one node per key, edges from
/// parents to children labelled by slot, roots annotated with their order.
pub fn par_heap_dot(h: &ParBinomialHeap) -> String {
    let mut out = String::from("digraph binomial_heap {\n  rankdir=TB;\n  node [shape=circle];\n");
    for (i, r) in h.roots().iter().enumerate() {
        if let Some(id) = r {
            out.push_str(&format!(
                "  n{} [label=\"{}\", xlabel=\"B{}\", penwidth=2];\n",
                id.0,
                h.arena().get(*id).key,
                i
            ));
        }
    }
    for (id, node) in h.arena().iter() {
        if node.parent().is_some() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", id.0, node.key));
        }
        for (slot, c) in h.arena().children_ascending(id).iter().enumerate() {
            out.push_str(&format!("  n{} -> n{} [label=\"{slot}\"];\n", id.0, c.0));
        }
    }
    out.push_str("}\n");
    out
}

/// Render a lazy heap; empty (deleted) nodes are drawn filled/grey and the
/// `L`/`D` classification shows as solid/dashed edges.
pub fn lazy_heap_dot(h: &LazyBinomialHeap) -> String {
    let mut out =
        String::from("digraph lazy_binomial_heap {\n  rankdir=TB;\n  node [shape=circle];\n");
    let mut stack: Vec<crate::arena::NodeId> = h.roots_snapshot().into_iter().flatten().collect();
    let roots = stack.clone();
    while let Some(id) = stack.pop() {
        let key = h.key_of(id);
        let label = key.map_or_else(|| "-inf".to_string(), |k| k.to_string());
        let style = if key.is_none() {
            ", style=filled, fillcolor=gray70"
        } else {
            ""
        };
        let pen = if roots.contains(&id) {
            ", penwidth=2"
        } else {
            ""
        };
        out.push_str(&format!("  n{} [label=\"{label}\"{style}{pen}];\n", id.0));
        for (slot, c) in h.children_of(id).into_iter().enumerate() {
            let dashed = if h.is_empty_node(c) {
                ", style=dashed"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{slot}\"{dashed}];\n",
                id.0, c.0
            ));
            stack.push(c);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_dot_contains_every_key_and_edge() {
        let h = ParBinomialHeap::from_keys([3, 1, 4, 1, 5, 9, 2, 6]);
        let dot = par_heap_dot(&h);
        assert!(dot.starts_with("digraph"));
        // 8 keys → one B_3 → 7 edges.
        assert_eq!(dot.matches(" -> ").count(), 7);
        for k in ["\"1\"", "\"9\"", "\"2\""] {
            assert!(dot.contains(k), "missing {k}");
        }
        assert!(dot.contains("xlabel=\"B3\""));
    }

    #[test]
    fn lazy_dot_marks_empties() {
        let mut h = LazyBinomialHeap::new(2);
        h.set_auto_arrange(false);
        let ids: Vec<_> = (0..8).map(|k| h.insert(k)).collect();
        h.delete(ids[7]);
        let dot = lazy_heap_dot(&h);
        assert!(dot.contains("-inf"));
        assert!(dot.contains("style=filled"));
        assert!(dot.contains("style=dashed"));
        assert_eq!(dot.matches(" -> ").count(), 7);
    }
}
